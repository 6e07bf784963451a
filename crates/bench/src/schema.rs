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

/// `STORAGE_SOAK.json` — storage-fault soak cells (`storage_soak`): one
/// row per backend × fault plan with serve/shed/ack counts, health
/// transitions and the acked-write-survival verdict.
pub const STORAGE_SOAK: Artifact = Artifact { name: "storage_soak", version: 1 };

/// `*_FAILURE.json` — the one failing cell of a soak binary, written by
/// [`crate::cell::fail`]: one row `{"tool", "cell": {…}, "failure",
/// "observed": {…}}`. `cell` names the configuration (backend, mode, plan,
/// rate …), `failure` says what broke, `observed` carries the counters the
/// cell had reached (empty when it hung or panicked). The file names stay
/// per tool (`STORAGE_FAULT_FAILURE.json`, `CHAOS_FAILURE.json`).
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
        let doc = STORAGE_SOAK.wrap(ROWS);
        let rows = validate(&doc, &STORAGE_SOAK).expect("own envelope must validate");
        assert_eq!(rows, ROWS);
    }

    #[test]
    fn pre_envelope_documents_are_refused() {
        assert_eq!(validate(ROWS, &STORAGE_SOAK), Err(SchemaError::MissingSchema));
    }

    #[test]
    fn wrong_schema_name_is_refused() {
        let doc = CHAOS_SOAK.wrap(ROWS);
        assert_eq!(
            validate(&doc, &STORAGE_SOAK),
            Err(SchemaError::WrongSchema {
                expected: STORAGE_SOAK.name,
                found: CHAOS_SOAK.name.to_string()
            })
        );
    }

    #[test]
    fn unknown_versions_are_refused_in_both_directions() {
        let newer = Artifact { name: STORAGE_SOAK.name, version: STORAGE_SOAK.version + 1 };
        assert_eq!(
            validate(&newer.wrap(ROWS), &STORAGE_SOAK),
            Err(SchemaError::UnknownVersion {
                schema: STORAGE_SOAK.name,
                supported: STORAGE_SOAK.version,
                found: STORAGE_SOAK.version + 1,
            })
        );
        let older = Artifact { name: STORAGE_SOAK.name, version: STORAGE_SOAK.version - 1 };
        assert!(matches!(
            validate(&older.wrap(ROWS), &STORAGE_SOAK),
            Err(SchemaError::UnknownVersion { found: 0, .. })
        ));
    }

    #[test]
    fn missing_version_and_rows_are_refused() {
        let doc = format!("{{\"schema\": \"{}\", \"rows\": []}}", STORAGE_SOAK.name);
        assert_eq!(validate(&doc, &STORAGE_SOAK), Err(SchemaError::MissingVersion));
        let doc = format!(
            "{{\"schema\": \"{}\", \"schema_version\": {}}}",
            STORAGE_SOAK.name, STORAGE_SOAK.version
        );
        assert_eq!(validate(&doc, &STORAGE_SOAK), Err(SchemaError::MissingRows));
    }

    #[test]
    fn load_reads_what_write_wrote() {
        let dir = std::env::temp_dir().join("txkv_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        STORAGE_SOAK.write(&path, ROWS).unwrap();
        assert_eq!(load(&path, &STORAGE_SOAK).unwrap(), ROWS);
        let err = load(&path, &CHAOS_SOAK).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
