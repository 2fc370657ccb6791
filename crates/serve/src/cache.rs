//! The disk-backed, content-addressed verdict cache.
//!
//! A serve deployment sees the same programs again and again (CI
//! re-runs, fleets of identical clients), and a complete analysis
//! verdict is a pure function of the **normalised program** and the
//! semantic options it ran under. The cache keys on exactly that
//! function's domain:
//!
//! * the program is normalised by *parsing* plus a register-renumber
//!   pass ([`normalise`]) — the parser interns location and monitor
//!   names in order of first appearance (so whitespace, comments and
//!   consistent location/monitor renamings collapse already), while
//!   register names `rN` keep their numeral, so [`normalise`]
//!   renumbers registers in order of first appearance too; the key is
//!   the interner's [`fx_hash`] of the normalised AST;
//! * the semantic options (memory model, read-value domain, action
//!   fuel, τ bound, reduction toggle) are folded into a human-readable
//!   fingerprint string that is hashed alongside and stored for exact
//!   verification — differing options can never alias.
//!
//! Crash safety is by construction, not by fsck:
//!
//! * **atomic publication** — entries are written to a temp file in the
//!   cache directory and `rename(2)`d into place, so a reader sees the
//!   whole entry or no entry, never a torn write;
//! * **checksummed payloads** — every entry carries an FxHash checksum
//!   of its payload; a corrupt entry (bit rot, a crash mid-`rename` on
//!   exotic filesystems, hostile tampering) fails the checksum;
//! * **quarantine, never trust, never die** — a corrupt entry is
//!   renamed to `<key>.corrupt` (kept for post-mortems) and reported as
//!   a miss, so the verdict is recomputed; corruption can cost work,
//!   never correctness, and can never crash the server.
//!
//! Only **complete, fault-free** results are admitted: a truncated or
//! panic-degraded run reports `unknown` and is recomputed next time —
//! caching it would launder a budget artefact into a persistent answer.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use transafety_interleaving::intern::fx_hash;
use transafety_lang::{Cond, Operand, Program, Reg, Stmt};

use crate::proto::{json_escape, parse_flat_object, JsonValue};

/// Completes the parser's normalisation: renumbers registers in order
/// of first appearance (program order, thread by thread). The parser
/// already interns location and monitor *names* by first appearance,
/// but spells register `rN` as index `N` verbatim — so without this
/// pass, `r0`/`r7` renamings of the same program would key differently.
/// Locations, monitors, constants and control structure pass through
/// untouched: those are semantic, not spelling.
#[must_use]
pub fn normalise(program: &Program) -> Program {
    let mut map: std::collections::HashMap<Reg, Reg> = std::collections::HashMap::new();
    let mut rename = |r: Reg| -> Reg {
        let next = Reg::new(u32::try_from(map.len()).unwrap_or(u32::MAX));
        *map.entry(r).or_insert(next)
    };
    fn operand(o: Operand, rename: &mut impl FnMut(Reg) -> Reg) -> Operand {
        match o {
            Operand::Reg(r) => Operand::Reg(rename(r)),
            Operand::Const(v) => Operand::Const(v),
        }
    }
    fn cond(c: Cond, rename: &mut impl FnMut(Reg) -> Reg) -> Cond {
        match c {
            Cond::Eq(a, b) => Cond::Eq(operand(a, rename), operand(b, rename)),
            Cond::Ne(a, b) => Cond::Ne(operand(a, rename), operand(b, rename)),
        }
    }
    fn stmt(s: &Stmt, rename: &mut impl FnMut(Reg) -> Reg) -> Stmt {
        match s {
            Stmt::Store { loc, src } => Stmt::Store {
                loc: *loc,
                src: rename(*src),
            },
            Stmt::Load { dst, loc } => Stmt::Load {
                dst: rename(*dst),
                loc: *loc,
            },
            Stmt::Move { dst, src } => {
                // Source before destination: reads of a register occur
                // (in spelled order) before the write's new binding.
                let src = operand(*src, rename);
                Stmt::Move {
                    dst: rename(*dst),
                    src,
                }
            }
            Stmt::Lock(m) => Stmt::Lock(*m),
            Stmt::Unlock(m) => Stmt::Unlock(*m),
            Stmt::Skip => Stmt::Skip,
            Stmt::Print(r) => Stmt::Print(rename(*r)),
            Stmt::Block(stmts) => Stmt::Block(stmts.iter().map(|s| stmt(s, rename)).collect()),
            Stmt::If {
                cond: c,
                then_branch,
                else_branch,
            } => Stmt::If {
                cond: cond(*c, rename),
                then_branch: Box::new(stmt(then_branch, rename)),
                else_branch: Box::new(stmt(else_branch, rename)),
            },
            Stmt::While { cond: c, body } => Stmt::While {
                cond: cond(*c, rename),
                body: Box::new(stmt(body, rename)),
            },
        }
    }
    Program::new(
        program
            .threads()
            .iter()
            .map(|thread| thread.iter().map(|s| stmt(s, &mut rename)).collect())
            .collect(),
    )
}

/// Magic + version tag on every entry's first line; bump on layout
/// changes so old caches read as misses, not as garbage.
const ENTRY_MAGIC: &str = "drfcheck-cache-v1";

/// A 64-bit content address: the FxHash of the normalised program AST
/// combined with the options fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Computes the key for a program (pass it through [`normalise`]
    /// first — the server does) under an options fingerprint.
    #[must_use]
    pub fn new(program: &Program, fingerprint: &str) -> Self {
        CacheKey(fx_hash(&(program, fingerprint)))
    }

    /// The entry file name for this key.
    #[must_use]
    pub fn file_name(self) -> String {
        format!("{:016x}.entry", self.0)
    }
}

/// The cached result of one complete analysis: everything a response
/// needs, plus the full key material (canonical program text and
/// fingerprint) so a 64-bit hash collision verifies as a miss instead
/// of serving the wrong program's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Canonical rendering of the normalised program (`Program`'s
    /// `Display`, which reparses to the identical AST).
    pub program: String,
    /// The options fingerprint the verdict was computed under.
    pub fingerprint: String,
    /// `racy` / `drf_proven` (cached entries are complete runs, so
    /// `unknown` never appears here).
    pub verdict: String,
    /// Number of distinct behaviours.
    pub behaviours: u64,
    /// Whether the behaviour set was exact (it always is for a cached
    /// complete run; kept explicit for the response contract).
    pub behaviours_complete: bool,
    /// Distinct reachable model states. Serve never runs the census, so
    /// it stores `0` ("not counted": every program has at least one
    /// state); the key stays in the payload for format compatibility
    /// and is ignored on load.
    pub reachable_states: u64,
}

impl CacheEntry {
    fn payload(&self) -> String {
        let mut s = String::with_capacity(self.program.len() + 128);
        s.push('{');
        let _ = write!(s, "\"program\":\"{}\"", json_escape(&self.program));
        let _ = write!(s, ",\"fingerprint\":\"{}\"", json_escape(&self.fingerprint));
        let _ = write!(s, ",\"verdict\":\"{}\"", json_escape(&self.verdict));
        let _ = write!(s, ",\"behaviours\":{}", self.behaviours);
        let _ = write!(s, ",\"behaviours_complete\":{}", self.behaviours_complete);
        let _ = write!(s, ",\"reachable_states\":{}", self.reachable_states);
        s.push('}');
        s
    }

    fn from_payload(payload: &str) -> Result<Self, String> {
        let pairs = parse_flat_object(payload)?;
        let get = |key: &str| -> Result<&JsonValue, String> {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key {key:?}"))
        };
        let string = |key: &str| -> Result<String, String> {
            get(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("{key} is not a string"))
        };
        let number = |key: &str| -> Result<u64, String> {
            get(key)?
                .as_u64()
                .ok_or_else(|| format!("{key} is not a non-negative integer"))
        };
        Ok(CacheEntry {
            program: string("program")?,
            fingerprint: string("fingerprint")?,
            verdict: string("verdict")?,
            behaviours: number("behaviours")?,
            behaviours_complete: get("behaviours_complete")?
                .as_bool()
                .ok_or("behaviours_complete is not a boolean")?,
            reachable_states: 0,
        })
    }
}

/// The outcome of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// Verified hit: checksum passed **and** the stored program text
    /// and fingerprint match the probe exactly.
    Hit(CacheEntry),
    /// No entry (or a same-key entry for different content — a 64-bit
    /// collision — which is treated as absence).
    Miss,
    /// An entry existed but failed its checksum or would not parse; it
    /// was quarantined to `<key>.corrupt` and the caller recomputes.
    Quarantined,
}

/// A directory of checksummed verdict entries with atomic publication.
#[derive(Debug)]
pub struct VerdictCache {
    dir: PathBuf,
    /// Distinguishes concurrent writers' temp files (the pid alone is
    /// not enough: the serve workers share one process).
    tmp_counter: AtomicU64,
}

impl VerdictCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(VerdictCache {
            dir,
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The directory entries live in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of `key`'s entry (whether or not it exists).
    #[must_use]
    pub fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Probes the cache for `key`, verifying the stored content against
    /// the probe's `program` rendering and `fingerprint`.
    #[must_use]
    pub fn load(&self, key: CacheKey, program: &str, fingerprint: &str) -> CacheLookup {
        let path = self.entry_path(key);
        let raw = match fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            // Unreadable (permissions, I/O error): treat as corrupt —
            // quarantine may fail too, but the verdict is recomputed
            // either way.
            Err(_) => return self.quarantine(&path),
        };
        let Some((header, payload)) = raw.split_once('\n') else {
            return self.quarantine(&path);
        };
        let Some(checksum_hex) = header.strip_prefix(ENTRY_MAGIC).map(str::trim) else {
            return self.quarantine(&path);
        };
        let Ok(expected) = u64::from_str_radix(checksum_hex, 16) else {
            return self.quarantine(&path);
        };
        let payload = payload.trim_end_matches('\n');
        if fx_hash(&payload.as_bytes()) != expected {
            return self.quarantine(&path);
        }
        let Ok(entry) = CacheEntry::from_payload(payload) else {
            // Checksum passed but the payload does not parse: only
            // possible if a corrupted file happens to re-checksum,
            // or a version skew slipped past the magic. Quarantine.
            return self.quarantine(&path);
        };
        if entry.program == program && entry.fingerprint == fingerprint {
            CacheLookup::Hit(entry)
        } else {
            CacheLookup::Miss
        }
    }

    /// Publishes `entry` under `key`: temp file, then atomic rename.
    /// Returns the final path (the fault-injection harness uses it to
    /// corrupt entries deterministically).
    pub fn store(&self, key: CacheKey, entry: &CacheEntry) -> io::Result<PathBuf> {
        let payload = entry.payload();
        let checksum = fx_hash(&payload.as_bytes());
        let contents = format!("{ENTRY_MAGIC} {checksum:016x}\n{payload}\n");
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.file_name(),
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let path = self.entry_path(key);
        fs::write(&tmp, contents)?;
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(path),
            Err(e) => {
                // Never leave temp droppings behind on a failed publish.
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    fn quarantine(&self, path: &Path) -> CacheLookup {
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(".corrupt");
        // Rename failures (another worker already quarantined it, or
        // the file vanished) change nothing: the caller recomputes.
        let _ = fs::rename(path, PathBuf::from(quarantined));
        CacheLookup::Quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::parse_program;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "transafety-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn entry_for(program: &Program, fingerprint: &str) -> CacheEntry {
        CacheEntry {
            program: program.to_string(),
            fingerprint: fingerprint.to_string(),
            verdict: "racy".to_string(),
            behaviours: 3,
            behaviours_complete: true,
            reachable_states: 0,
        }
    }

    #[test]
    fn a_stored_state_count_is_ignored_on_load() {
        let cache = VerdictCache::open(tmp_dir("census")).unwrap();
        let p = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        let key = CacheKey::new(&p, "fp");
        let entry = entry_for(&p, "fp");
        // An entry written when serve still ran the census.
        let counted = CacheEntry {
            reachable_states: 11,
            ..entry.clone()
        };
        let path = cache.store(key, &counted).unwrap();
        assert!(fs::read_to_string(&path)
            .unwrap()
            .contains("\"reachable_states\":11"));
        assert_eq!(
            cache.load(key, &p.to_string(), "fp"),
            CacheLookup::Hit(entry)
        );
    }

    #[test]
    fn round_trip_and_verified_hit() {
        let cache = VerdictCache::open(tmp_dir("roundtrip")).unwrap();
        let p = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        let key = CacheKey::new(&p, "fp");
        assert_eq!(cache.load(key, &p.to_string(), "fp"), CacheLookup::Miss);
        let entry = entry_for(&p, "fp");
        cache.store(key, &entry).unwrap();
        assert_eq!(
            cache.load(key, &p.to_string(), "fp"),
            CacheLookup::Hit(entry)
        );
        // Same key bits, different fingerprint: verified miss.
        assert_eq!(cache.load(key, &p.to_string(), "other"), CacheLookup::Miss);
    }

    #[test]
    fn corruption_quarantines_and_recovers() {
        let cache = VerdictCache::open(tmp_dir("corrupt")).unwrap();
        let p = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        let key = CacheKey::new(&p, "fp");
        let entry = entry_for(&p, "fp");
        let path = cache.store(key, &entry).unwrap();
        // Flip payload bytes without touching the checksum header.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        assert_eq!(
            cache.load(key, &p.to_string(), "fp"),
            CacheLookup::Quarantined
        );
        assert!(!path.exists(), "corrupt entry renamed away");
        let mut corrupt = path.clone().into_os_string();
        corrupt.push(".corrupt");
        assert!(
            PathBuf::from(corrupt).exists(),
            "quarantined copy kept for post-mortem"
        );
        // Second probe: plain miss; a store repairs the slot.
        assert_eq!(cache.load(key, &p.to_string(), "fp"), CacheLookup::Miss);
        cache.store(key, &entry).unwrap();
        assert_eq!(
            cache.load(key, &p.to_string(), "fp"),
            CacheLookup::Hit(entry)
        );
    }

    #[test]
    fn truncated_and_garbage_entries_quarantine() {
        let cache = VerdictCache::open(tmp_dir("garbage")).unwrap();
        let p = parse_program("x := 1;").unwrap().program;
        let key = CacheKey::new(&p, "fp");
        fs::write(cache.entry_path(key), "not an entry").unwrap();
        assert_eq!(
            cache.load(key, &p.to_string(), "fp"),
            CacheLookup::Quarantined
        );
        fs::write(cache.entry_path(key), format!("{ENTRY_MAGIC} zzzz\n{{}}\n")).unwrap();
        assert_eq!(
            cache.load(key, &p.to_string(), "fp"),
            CacheLookup::Quarantined
        );
    }

    #[test]
    fn renaming_normalisation_shares_a_key() {
        // Same program modulo whitespace + consistent renaming of a
        // location (y for x) AND a register (r7 for r0): parsing
        // normalises the location, `normalise` renumbers the register,
        // so the keys coincide.
        let a = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        let b = parse_program("  y:=1;\n||\n  r7 := y;\n  print r7;  ")
            .unwrap()
            .program;
        let (a, b) = (normalise(&a), normalise(&b));
        assert_eq!(a, b, "parse + renumber is the normaliser");
        assert_eq!(CacheKey::new(&a, "fp"), CacheKey::new(&b, "fp"));
        assert_ne!(
            CacheKey::new(&a, "fp").file_name(),
            CacheKey::new(&a, "fp2").file_name(),
            "options are part of the address"
        );
    }

    #[test]
    fn normalise_is_idempotent_and_semantics_preserving() {
        let src = "lock m; a := 1; unlock m; || if (r3 == 0) { r3 := a; print r3; } else skip; while (r2 != 1) r2 := a;";
        let p = parse_program(src).unwrap().program;
        let n = normalise(&p);
        assert_eq!(normalise(&n), n, "idempotent");
        // The canonical rendering reparses to the same normal form.
        let reparsed = parse_program(&n.to_string()).unwrap().program;
        assert_eq!(normalise(&reparsed), n, "Display round-trips");
        // Different register *structure* (one register vs two) must NOT
        // collapse.
        let one = normalise(&parse_program("r0 := x; r0 := y;").unwrap().program);
        let two = normalise(&parse_program("r0 := x; r1 := y;").unwrap().program);
        assert_ne!(one, two, "distinct registers stay distinct");
    }
}
