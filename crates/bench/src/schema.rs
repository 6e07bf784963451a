//! Versioned envelopes for the JSON artifacts the bench binaries emit.
//!
//! Every artifact is written as
//!
//! ```json
//! {"schema": "<name>", "schema_version": <n>, "rows": [ ... ]}
//! ```
//!
//! so a consumer (CI assertions, plotting scripts, later PRs) can tell
//! *which* shape it is holding before it indexes into rows. [`load`]
//! rejects unknown names and versions instead of silently misreading a
//! stale artifact — the failure mode this module exists to close: a row
//! field changes meaning, an old file lingers in a workspace, and a
//! plot quietly graphs the wrong column.
//!
//! Parsing is a two-field scan, not a JSON parser: the envelope is
//! machine-written on the line above, both fields are emitted first, and
//! the bench stack deliberately has no serde. [`Artifact::wrap`] and
//! [`load`] are inverse by construction and tested as such.

use crate::cell::Fields;
use std::fmt;
use std::path::Path;

/// One versioned artifact kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Artifact {
    /// Schema name stamped into the envelope.
    pub name: &'static str,
    /// Current writer version. Bump when a row field is added, removed,
    /// or changes meaning.
    pub version: u32,
}

/// `CHAOS_SOAK.json` — chaos-soak cells.
pub const CHAOS_SOAK: Artifact = Artifact { name: "chaos_soak", version: 1 };

/// `BENCH_TXKV.json` — txkv service-layer bench (per-op-class SLOs).
///
/// v2 added sharding: `shards`, `cross_shard_pct`, `tick_us` (the
/// effective open-loop arrival tick — e2e percentiles are only
/// meaningful down to this quantum), `ro_replies_per_sec`,
/// `quiesce_waits`, and the `twopc_*` counters (cross-shard two-phase
/// commit prepares / aborts / escalations / multi-shard reads).
///
/// v3 added durability: the `durability` column (`off` / `async` /
/// `sync` — which ack-vs-fsync contract the cell ran under) and the WAL
/// counters `wal_appends`, `wal_fsync_batches`, `wal_mean_group_commit`,
/// `wal_checkpoints`, `wal_sync_acks_early` (must be 0: a `sync` ack
/// may never precede its fsync), and `wal_dead_sheds`. Comparing
/// `replies_per_sec` across `durability` values at fixed rate is the
/// Sync-vs-Off overhead headline (`txkv_bench --durability-sweep`).
///
/// Reading `ro_batch_aborts` is backend-specific by design:
///
/// | backend | expectation                                             |
/// |---------|---------------------------------------------------------|
/// | SI-HTM  | **must be 0** — the RO fast path never aborts (§3.3),   |
/// |         | durable or not (logging sits outside transactions)      |
/// | P8TM    | may abort; `ro_commits > 0` shows the RO path was taken |
/// | HTM+SGL | RO batches are ordinary transactions; aborts are normal |
/// | Silo    | OCC validation may fail and retry; aborts are normal    |
///
/// `txkv_bench --assert-service` enforces exactly these expectations.
///
/// v4 added the typed-workload columns: every row carries `workload`
/// (`kv` for the generic KV mixes, `tpcc` for `--tpcc-service` cells)
/// and `tx_class` (`all` on kv rows; on tpcc rows the TPC-C transaction
/// class — `new_order`, `payment`, `order_status`, `delivery`,
/// `stock_level` — one row per class, with that class's e2e/service
/// percentiles from the pipeline's per-procedure histograms). tpcc rows
/// also carry `mix` (`standard` / `read_dominated`), `acked`,
/// `user_aborts`, `index_hits` and `lastname_acks` (the secondary-index
/// evidence: hits must cover every by-last-name selection).
///
/// v5 added storage-fault health: `storage_faults` (whether the cell
/// ran with an armed injector), `health` (worst final per-shard storage
/// health — `healthy` / `retrying` / `read_only` / `failed`) and the
/// counters `wal_retries` (flush rewrites into rotated segments),
/// `degraded_sheds` (updates answered the typed `Unavailable`),
/// `wal_rejoins` (probe-write recoveries), `scrub_passes` /
/// `scrub_corruptions` (latent-corruption scrubber) and
/// `ckpt_failures`. Under `--storage-faults`, `--assert-service` still
/// gates `wal_sync_acks_early == 0` — degraded shards shed, they never
/// ack early.
///
/// v6 added the network columns. Every kv row now carries
/// `offered_per_sec`: offered load (accepted + refused submissions) over
/// the *arrival window only* — the old habit of dividing by `wall`
/// (which includes backend/WAL warm-up and the shutdown drain) badly
/// under-reported offered rate on short runs. `txkv_bench --net tcp|uds`
/// adds per-tenant rows with `mode: "net"`: `transport` (`tcp` / `uds`),
/// `phase` (`solo` — the protected tenant alone, the SLO baseline — or
/// `contended` — the same load plus a noisy neighbor flooding open-loop
/// past saturation), `tenant`, `priority`, `protected`, and that
/// tenant's server-edge admission/answer accounting (`offered`,
/// `accepted`, `answered`, `shed`, `refused_quota`, `refused_pressure`,
/// `refused_backend`) plus receive-to-reply `e2e_p50_ns` / `e2e_p99_ns`
/// / `e2e_p999_ns`. The contended protected row also carries
/// `solo_p99_ns` (its phase-`solo` baseline); `--assert-service` gates
/// the noisy-neighbor SLO on exactly these two columns (contended p99 ≤
/// 1.5× solo p99, with a small absolute floor for scheduler noise),
/// alongside answered-or-shed (`accepted == answered + shed` at the
/// wire, dropped connections included) and zero starved executors.
pub const BENCH_TXKV: Artifact = Artifact { name: "bench_txkv", version: 6 };

/// `STORAGE_SOAK.json` — storage-fault soak cells (`storage_soak`): one
/// row per backend × fault plan with serve/shed/ack counts, health
/// transitions and the acked-write-survival verdict.
pub const STORAGE_SOAK: Artifact = Artifact { name: "storage_soak", version: 1 };

/// `*_FAILURE.json` — the one failing cell of a soak binary, written by
/// [`crate::cell::fail`]: one row `{"tool", "cell": {…}, "failure",
/// "observed": {…}}`. `cell` names the configuration (backend, mode, plan,
/// rate …), `failure` says what broke, `observed` carries the counters the
/// cell had reached (empty when it hung or panicked). The file names stay
/// per tool (`TXKV_FAILURE.json`, `NET_FAILURE.json`,
/// `STORAGE_FAULT_FAILURE.json`, `CHAOS_FAILURE.json`).
pub const FAILURE: Artifact = Artifact { name: "failure", version: 1 };

impl Artifact {
    /// Wrap a JSON array of rows in the versioned envelope.
    pub fn wrap(&self, rows_json: &str) -> String {
        format!(
            "{{\"schema\": \"{}\", \"schema_version\": {}, \"rows\": {}}}\n",
            self.name,
            self.version,
            rows_json.trim_end()
        )
    }

    /// Wrap and write to `path`.
    pub fn write(&self, path: impl AsRef<Path>, rows_json: &str) -> std::io::Result<()> {
        std::fs::write(path, self.wrap(rows_json))
    }

    /// Write `rows` to `path` as the envelope's array, one row per line.
    pub fn write_rows(&self, path: impl AsRef<Path>, rows: &[Fields]) -> std::io::Result<()> {
        let rows: Vec<String> = rows.iter().map(|r| format!("  {}", r.render())).collect();
        self.write(path, &format!("[\n{}\n]", rows.join(",\n")))
    }
}

/// Why a document was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// No `"schema"` field — pre-envelope artifact (or not ours).
    MissingSchema,
    /// No `"schema_version"` field.
    MissingVersion,
    /// Envelope names a different artifact.
    WrongSchema { expected: &'static str, found: String },
    /// Right artifact, unknown version (newer writer, or ancient file).
    UnknownVersion { schema: &'static str, supported: u32, found: u32 },
    /// Envelope present but no `"rows"` array.
    MissingRows,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::MissingSchema => write!(f, "no \"schema\" field (pre-envelope artifact?)"),
            SchemaError::MissingVersion => write!(f, "no \"schema_version\" field"),
            SchemaError::WrongSchema { expected, found } => {
                write!(f, "schema mismatch: expected \"{expected}\", found \"{found}\"")
            }
            SchemaError::UnknownVersion { schema, supported, found } => {
                write!(f, "unknown {schema} version {found} (this build reads version {supported})")
            }
            SchemaError::MissingRows => write!(f, "envelope has no \"rows\" array"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Extract the string value following `"<key>":` in `doc`.
fn scan_string<'d>(doc: &'d str, key: &str) -> Option<&'d str> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extract the unsigned integer following `"<key>":` in `doc`.
fn scan_u32(doc: &str, key: &str) -> Option<u32> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let digits: String =
        doc[at..].trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Validate `doc` against `expected` and return the rows payload
/// (everything from the `[` of `"rows"` to the closing `]`, exclusive of
/// the envelope's final `}`).
pub fn validate<'d>(doc: &'d str, expected: &Artifact) -> Result<&'d str, SchemaError> {
    let name = scan_string(doc, "schema").ok_or(SchemaError::MissingSchema)?;
    if name != expected.name {
        return Err(SchemaError::WrongSchema { expected: expected.name, found: name.to_string() });
    }
    let version = scan_u32(doc, "schema_version").ok_or(SchemaError::MissingVersion)?;
    if version != expected.version {
        return Err(SchemaError::UnknownVersion {
            schema: expected.name,
            supported: expected.version,
            found: version,
        });
    }
    let needle = "\"rows\":";
    let at = doc.find(needle).ok_or(SchemaError::MissingRows)?;
    let rows = doc[at + needle.len()..].trim_start();
    if !rows.starts_with('[') {
        return Err(SchemaError::MissingRows);
    }
    // The envelope object closes after the array: drop the final `}`.
    let end = rows.rfind(']').ok_or(SchemaError::MissingRows)?;
    Ok(&rows[..=end])
}

/// Read `path` and [`validate`] it; returns the rows payload.
pub fn load(path: impl AsRef<Path>, expected: &Artifact) -> Result<String, String> {
    let path = path.as_ref();
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match validate(&doc, expected) {
        Ok(rows) => Ok(rows.to_string()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: &str = "[\n  {\"x\": 1},\n  {\"x\": 2}\n]";

    #[test]
    fn wrap_then_validate_roundtrips() {
        let doc = BENCH_TXKV.wrap(ROWS);
        let rows = validate(&doc, &BENCH_TXKV).expect("own envelope must validate");
        assert_eq!(rows, ROWS);
    }

    #[test]
    fn pre_envelope_documents_are_refused() {
        assert_eq!(validate(ROWS, &BENCH_TXKV), Err(SchemaError::MissingSchema));
    }

    #[test]
    fn wrong_schema_name_is_refused() {
        let doc = CHAOS_SOAK.wrap(ROWS);
        assert_eq!(
            validate(&doc, &BENCH_TXKV),
            Err(SchemaError::WrongSchema {
                expected: BENCH_TXKV.name,
                found: CHAOS_SOAK.name.to_string()
            })
        );
    }

    #[test]
    fn unknown_versions_are_refused_in_both_directions() {
        let newer = Artifact { name: BENCH_TXKV.name, version: BENCH_TXKV.version + 1 };
        assert_eq!(
            validate(&newer.wrap(ROWS), &BENCH_TXKV),
            Err(SchemaError::UnknownVersion {
                schema: BENCH_TXKV.name,
                supported: BENCH_TXKV.version,
                found: BENCH_TXKV.version + 1,
            })
        );
        let older = Artifact { name: BENCH_TXKV.name, version: 1 };
        assert!(matches!(
            validate(&older.wrap(ROWS), &BENCH_TXKV),
            Err(SchemaError::UnknownVersion { found: 1, .. })
        ));
    }

    #[test]
    fn missing_version_and_rows_are_refused() {
        let doc = format!("{{\"schema\": \"{}\", \"rows\": []}}", BENCH_TXKV.name);
        assert_eq!(validate(&doc, &BENCH_TXKV), Err(SchemaError::MissingVersion));
        let doc = format!(
            "{{\"schema\": \"{}\", \"schema_version\": {}}}",
            BENCH_TXKV.name, BENCH_TXKV.version
        );
        assert_eq!(validate(&doc, &BENCH_TXKV), Err(SchemaError::MissingRows));
    }

    #[test]
    fn load_reads_what_write_wrote() {
        let dir = std::env::temp_dir().join("txkv_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        BENCH_TXKV.write(&path, ROWS).unwrap();
        assert_eq!(load(&path, &BENCH_TXKV).unwrap(), ROWS);
        let err = load(&path, &CHAOS_SOAK).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
