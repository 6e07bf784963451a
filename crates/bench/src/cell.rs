//! The harness the soak binaries (`storage_soak`, `chaos_soak`) share: a
//! hang/panic watch around one cell, a flat JSON object writer for
//! artifact rows, and the one failure artifact.

use crate::schema;
use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Run one cell on a spawned thread and wait at most `deadline` for it: a
/// hang or a panic comes back as an error message for the failure
/// artifact, not as a wedged or aborted process. A hung cell's thread is
/// left running; the caller reports the failure and exits, which ends it.
pub fn watch<T, F>(deadline: Duration, f: F) -> Result<T, String>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let worker = std::thread::spawn(f);
    let t0 = Instant::now();
    while !worker.is_finished() {
        if t0.elapsed() > deadline {
            return Err(format!("cell hung (no completion within {deadline:?})"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    worker.join().map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("cell panicked: {msg}")
    })
}

/// A path under the system temp directory that no other call of this
/// process returns: `<prefix>-<pid>-<seq><suffix>`.
pub fn scratch_path(prefix: &str, suffix: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{prefix}-{}-{seq}{suffix}", std::process::id()))
}

/// One JSON object, written field by field in insertion order:
/// `{"key": value, ...}`. String values are escaped; numbers and bools are
/// written as `Display` renders them.
#[derive(Debug, Clone, Default)]
pub struct Fields(String);

impl Fields {
    pub fn new() -> Self {
        Fields::default()
    }

    /// A value that is already JSON (a nested object, an array).
    fn raw(mut self, key: &str, json: &str) -> Self {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "{}: {json}", quote(key));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, &quote(value))
    }

    /// A number or a bool.
    pub fn num(self, key: &str, value: impl Display) -> Self {
        self.raw(key, &value.to_string())
    }

    /// A float with `digits` decimals.
    pub fn fixed(self, key: &str, value: f64, digits: usize) -> Self {
        self.raw(key, &format!("{value:.digits$}"))
    }

    /// An array of strings.
    pub fn strs(self, key: &str, values: &[&str]) -> Self {
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        self.raw(key, &format!("[{}]", items.join(", ")))
    }

    pub fn obj(self, key: &str, value: &Fields) -> Self {
        self.raw(key, &value.render())
    }

    /// Append every field of `other`, in its order.
    pub fn extend(mut self, other: &Fields) -> Self {
        if !self.0.is_empty() && !other.0.is_empty() {
            self.0.push_str(", ");
        }
        self.0.push_str(&other.0);
        self
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let body: String = s
        .chars()
        .map(|c| match c {
            '"' | '\\' => format!("\\{c}"),
            c if c < ' ' => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect();
    format!("\"{body}\"")
}

/// The [`schema::FAILURE`] row: which tool, which cell, what broke, and
/// the counters the cell had reached when it did (empty when it never
/// finished).
pub fn failure_row(tool: &str, cell: &Fields, failure: &str, observed: &Fields) -> Fields {
    Fields::new()
        .str("tool", tool)
        .obj("cell", cell)
        .str("failure", failure)
        .obj("observed", observed)
}

/// Write the failure artifact to `path`, say so on stderr, and exit 1.
pub fn fail(path: &str, tool: &str, cell: &Fields, failure: &str, observed: &Fields) -> ! {
    let row = failure_row(tool, cell, failure, observed);
    schema::FAILURE.write_rows(path, &[row]).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("FAIL {tool} {}: {failure}", cell.render());
    eprintln!("failing configuration written to {path}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn watch_returns_the_value_of_a_finished_cell() {
        assert_eq!(watch(Duration::from_secs(10), || 7), Ok(7));
    }

    #[test]
    fn watch_reports_the_panic_message() {
        let err = watch(Duration::from_secs(10), || -> u32 { panic!("boom \"quoted\"") });
        assert_eq!(err, Err("cell panicked: boom \"quoted\"".to_string()));
    }

    #[test]
    fn watch_reports_a_hang_and_the_cell_thread_still_ends() {
        let ended = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ended);
        let err = watch(Duration::from_millis(20), move || {
            std::thread::sleep(Duration::from_millis(200));
            flag.store(true, Ordering::SeqCst);
        })
        .unwrap_err();
        assert!(err.starts_with("cell hung"), "{err}");
        let t0 = Instant::now();
        while !ended.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(10), "the hung cell never ended");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn fields_render_one_flat_object_and_escape_strings() {
        let inner = Fields::new().num("n", 1);
        let f = Fields::new()
            .str("msg", "a \"b\" c\\d\n")
            .num("count", 3u64)
            .num("on", true)
            .fixed("rate", 2.0 / 3.0, 2)
            .strs("health", &["healthy", "read_only"])
            .obj("inner", &inner)
            .extend(&Fields::new().num("tail", 0))
            .extend(&Fields::new());
        assert_eq!(
            f.render(),
            "{\"msg\": \"a \\\"b\\\" c\\\\d\\u000a\", \"count\": 3, \"on\": true, \"rate\": 0.67, \
             \"health\": [\"healthy\", \"read_only\"], \"inner\": {\"n\": 1}, \"tail\": 0}"
        );
        assert_eq!(Fields::new().render(), "{}");
    }

    #[test]
    fn failure_row_round_trips_through_the_envelope() {
        let dir = std::env::temp_dir().join(format!("bench-cell-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("FAILURE.json");
        let cell = Fields::new().str("backend", "SI-HTM").str("plan", "weather");
        let observed = Fields::new().num("replies", 12);
        let row = failure_row("storage_soak", &cell, "cell panicked: \"x\" \\ y", &observed);
        schema::FAILURE.write_rows(&path, &[row]).unwrap();
        let rows = schema::load(&path, &schema::FAILURE).unwrap();
        assert_eq!(
            rows,
            "[\n  {\"tool\": \"storage_soak\", \"cell\": {\"backend\": \"SI-HTM\", \"plan\": \
             \"weather\"}, \"failure\": \"cell panicked: \\\"x\\\" \\\\ y\", \"observed\": \
             {\"replies\": 12}}\n]"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
