//! Machine configuration: virtual topology and capacity parameters.

/// How hardware-thread ids map onto cores (which threads share a TMCAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinLayout {
    /// Round-robin across cores: SMT sharing only begins once every core
    /// already runs one thread — the pinning used by the paper's run
    /// scripts, and the default.
    #[default]
    Scatter,
    /// Fill each core's SMT ways before moving to the next core:
    /// maximises TMCAM sharing at low thread counts (the adversarial
    /// layout for capacity experiments).
    Pack,
}

impl PinLayout {
    /// Parse the `HTM_SIM_PIN` spelling.
    pub fn parse(s: &str) -> Option<PinLayout> {
        match s {
            "scatter" | "rr" => Some(PinLayout::Scatter),
            "pack" | "fill" => Some(PinLayout::Pack),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            PinLayout::Scatter => "scatter",
            PinLayout::Pack => "pack",
        }
    }
}

/// Configuration of the simulated POWER machine.
///
/// The defaults model the paper's testbed: one POWER8 8284-22A processor
/// with 10 cores, SMT-8 (80 hardware threads), an 8 KB TMCAM per core
/// (64 × 128-byte lines) shared among the core's SMT threads.
#[derive(Debug, Clone)]
pub struct HtmConfig {
    /// Number of physical cores.
    pub cores: usize,
    /// SMT ways per core (hardware threads per core).
    pub smt: usize,
    /// TMCAM capacity per core, in cache lines (8 KB / 128 B = 64).
    pub tmcam_lines: u64,
    /// Fraction of ROT reads that still consume a TMCAM entry.
    ///
    /// Paper footnote 1: "due to implementation-specific reasons, the TMCAM
    /// can also track a small fraction of reads in a ROT". `0.0` disables
    /// the effect (the paper's model), values in `(0, 1]` enable the
    /// ablation bench. Sampling is deterministic per cache line.
    pub rot_read_tracking: f64,
    /// Optional POWER9 L2 LVDIR read-tracking extension.
    pub lvdir: Option<LvdirConfig>,
    /// Cost-model compensation for untracked reads, in `spin_loop` hints.
    ///
    /// On real hardware a load costs the same whether or not the TMCAM
    /// tracks it; in the simulator a *tracked* read additionally pays
    /// registration and capacity accounting. Untracked reads (ROT reads,
    /// read-only fast path, suspended/SGL reads) spin this many hints so
    /// per-read costs stay uniform across modes — without it the simulator
    /// would overstate SI-HTM's advantage on small transactions (see
    /// DESIGN.md). Set to 0 for the raw-cost ablation.
    pub untracked_read_spin: u32,
    /// How thread ids are pinned onto cores (TMCAM-sharing layout).
    pub pin: PinLayout,
}

/// POWER9 L2 LVDIR: a 512 KB read-tracking directory shared between two
/// cores, usable by at most two threads at any given time (§2.2).
#[derive(Debug, Clone)]
pub struct LvdirConfig {
    /// Capacity in cache lines (512 KB / 128 B = 4096).
    pub lines: u64,
    /// Maximum concurrent transactions allowed to use one LVDIR.
    pub max_users: u32,
}

impl Default for LvdirConfig {
    fn default() -> Self {
        LvdirConfig { lines: 4096, max_users: 2 }
    }
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            cores: 10,
            smt: 8,
            tmcam_lines: 64,
            rot_read_tracking: 0.0,
            lvdir: None,
            untracked_read_spin: 3,
            pin: PinLayout::default(),
        }
    }
}

impl HtmConfig {
    /// A small machine handy for unit tests: 2 cores, SMT-2.
    pub fn small() -> Self {
        HtmConfig { cores: 2, smt: 2, ..HtmConfig::default() }
    }

    /// The paper's POWER9 configuration: POWER8 topology plus the LVDIR.
    pub fn power9() -> Self {
        HtmConfig { lvdir: Some(LvdirConfig::default()), ..HtmConfig::default() }
    }

    /// Total hardware threads.
    pub fn max_threads(&self) -> usize {
        self.cores * self.smt
    }

    /// Virtual core hosting hardware thread `tid`, per the configured
    /// [`PinLayout`].
    pub fn core_of(&self, tid: usize) -> usize {
        match self.pin {
            PinLayout::Scatter => tid % self.cores,
            PinLayout::Pack => (tid / self.smt) % self.cores,
        }
    }

    /// Apply environment overrides: `HTM_SIM_PIN=scatter|pack` selects the
    /// pinning layout. Unknown values panic (a silently ignored override is
    /// worse than a crash in a bench or stress run).
    pub fn apply_env(mut self) -> Self {
        if let Ok(v) = std::env::var("HTM_SIM_PIN") {
            self.pin = PinLayout::parse(&v)
                .unwrap_or_else(|| panic!("HTM_SIM_PIN: unknown pin layout '{v}'"));
        }
        self
    }

    /// Number of core pairs (for LVDIR sharing).
    pub fn core_pairs(&self) -> usize {
        self.cores.div_ceil(2)
    }

    pub(crate) fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(self.smt > 0, "need at least one SMT thread per core");
        assert!(self.tmcam_lines > 0, "TMCAM must have capacity");
        assert!(
            (0.0..=1.0).contains(&self.rot_read_tracking),
            "rot_read_tracking must be a fraction in [0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_the_paper_testbed() {
        let c = HtmConfig::default();
        assert_eq!(c.cores, 10);
        assert_eq!(c.smt, 8);
        assert_eq!(c.max_threads(), 80);
        assert_eq!(c.tmcam_lines, 64);
        assert!(c.lvdir.is_none());
    }

    #[test]
    fn core_pinning_is_round_robin() {
        let c = HtmConfig::default();
        assert_eq!(c.core_of(0), 0);
        assert_eq!(c.core_of(9), 9);
        assert_eq!(c.core_of(10), 0);
        assert_eq!(c.core_of(79), 9);
    }

    #[test]
    fn pack_pinning_fills_smt_ways_first() {
        let c = HtmConfig { pin: PinLayout::Pack, ..HtmConfig::default() };
        assert_eq!(c.core_of(0), 0);
        assert_eq!(c.core_of(7), 0); // SMT-8: first 8 threads share core 0
        assert_eq!(c.core_of(8), 1);
        assert_eq!(c.core_of(79), 9);
        assert_eq!(c.core_of(80), 0); // over-subscription wraps
    }

    #[test]
    fn env_spellings_parse() {
        assert_eq!(PinLayout::parse("scatter"), Some(PinLayout::Scatter));
        assert_eq!(PinLayout::parse("pack"), Some(PinLayout::Pack));
        assert_eq!(PinLayout::parse("nope"), None);
    }

    #[test]
    fn power9_has_lvdir() {
        let c = HtmConfig::power9();
        let l = c.lvdir.as_ref().unwrap();
        assert_eq!(l.lines, 4096);
        assert_eq!(l.max_users, 2);
        assert_eq!(c.core_pairs(), 5);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_rejected() {
        HtmConfig { rot_read_tracking: 1.5, ..HtmConfig::default() }.validate();
    }
}
