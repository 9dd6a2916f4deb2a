//! Tuner checkpoints: crash-safe snapshots of the full racing state.
//!
//! A checkpoint is written atomically (temp file + rename) after every
//! completed iteration and captures *everything* the next iteration
//! depends on — the raw RNG state, the sampling model, the elites, the
//! budget, the cost cache, the instance quarantine and the run history —
//! so a run killed mid-flight and resumed from its checkpoint produces a
//! bit-identical result to an uninterrupted run with the same seed.
//!
//! The on-disk format is a line-oriented `key = value` text file (the
//! same INI-flavoured idiom as the simulator's config files; the
//! workspace has no serialisation library, so serialization is
//! hand-rolled). Floating-point values are stored as the 16-hex-digit
//! IEEE-754 bit pattern — exact round-tripping is a correctness
//! requirement, not a nicety.

use crate::param::{Configuration, Domain, ParamSpace, Value};
use crate::race::RaceLogEntry;
use crate::tuner::{IterationSummary, TunerSettings};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::Path;

/// Why a checkpoint could not be loaded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The file exists but does not parse as a checkpoint.
    Malformed(String),
    /// The checkpoint parses but belongs to a different run (seed,
    /// parameter space, or instance count differ).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The complete persisted state of a [`RacingTuner`](crate::RacingTuner)
/// run at an iteration boundary.
#[derive(Debug, Clone)]
pub struct TunerCheckpoint {
    /// The iteration the resumed run starts with.
    pub next_iteration: usize,
    /// Evaluation budget still available.
    pub budget_remaining: u64,
    /// Fresh evaluations consumed so far.
    pub evals_used: u64,
    /// Transient-fault retries so far.
    pub retries: u64,
    /// Configurations eliminated by evaluation failure so far.
    pub failed_configs: u64,
    /// The seed the run was started with.
    pub seed: u64,
    /// The instance count the run was started with.
    pub n_instances: usize,
    /// Fingerprint of the parameter space (see
    /// [`fingerprint`](Self::fingerprint)).
    pub space_fingerprint: u64,
    /// Raw xoshiro256++ state at the iteration boundary.
    pub rng_state: [u64; 4],
    /// Sampling-model perturbation width.
    pub spread: f64,
    /// Sampling-model weight vectors, one per parameter.
    pub weights: Vec<Vec<f64>>,
    /// Elite configurations with their mean costs, best first.
    pub elites: Vec<(Configuration, f64)>,
    /// Quarantined instances with reasons.
    pub quarantine: Vec<(usize, String)>,
    /// Memoised `(configuration, instance) → cost` entries.
    pub cache: Vec<(Configuration, usize, f64)>,
    /// Per-iteration summaries so far.
    pub history: Vec<IterationSummary>,
}

/// Formats an `f64` as its exact IEEE-754 bit pattern.
fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_hex(s: &str) -> Result<f64, CheckpointError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointError::Malformed(format!("bad f64 bit pattern {s:?}")))
}

fn parse_u64(s: &str) -> Result<u64, CheckpointError> {
    s.parse()
        .map_err(|_| CheckpointError::Malformed(format!("bad integer {s:?}")))
}

fn parse_hex_u64(s: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(s, 16)
        .map_err(|_| CheckpointError::Malformed(format!("bad hex integer {s:?}")))
}

fn parse_usize(s: &str) -> Result<usize, CheckpointError> {
    s.parse()
        .map_err(|_| CheckpointError::Malformed(format!("bad index {s:?}")))
}

/// Encodes a configuration as a compact dotted code, e.g. `C0.I3.F1`.
fn encode_config(cfg: &Configuration, n_params: usize) -> String {
    (0..n_params)
        .map(|i| match cfg.value(i) {
            Value::Cat(k) => format!("C{k}"),
            Value::Int(k) => format!("I{k}"),
            Value::Flag(b) => format!("F{}", u8::from(b)),
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// Decodes a dotted configuration code against `space`, rejecting codes
/// whose arity, value kinds, or indices do not fit the space.
fn decode_config(space: &ParamSpace, code: &str) -> Result<Configuration, CheckpointError> {
    let parts: Vec<&str> = code.split('.').collect();
    if parts.len() != space.len() {
        return Err(CheckpointError::Malformed(format!(
            "configuration {code:?} has {} values, space has {} parameters",
            parts.len(),
            space.len()
        )));
    }
    let mut cfg = space.default_configuration();
    for (idx, part) in parts.iter().enumerate() {
        let (kind, rest) = part.split_at(1);
        let domain = &space.params()[idx].domain;
        let value = match (kind, domain) {
            ("C", Domain::Categorical(cs)) => {
                let k = parse_usize(rest)?;
                if k >= cs.len() {
                    return Err(CheckpointError::Malformed(format!(
                        "categorical index {k} out of range in {code:?}"
                    )));
                }
                Value::Cat(k as u16)
            }
            ("I", Domain::Integer(vs)) => {
                let k = parse_usize(rest)?;
                if k >= vs.len() {
                    return Err(CheckpointError::Malformed(format!(
                        "integer index {k} out of range in {code:?}"
                    )));
                }
                Value::Int(k as u16)
            }
            ("F", Domain::Bool) => Value::Flag(rest == "1"),
            _ => {
                return Err(CheckpointError::Malformed(format!(
                    "value {part:?} does not fit parameter {} in {code:?}",
                    space.params()[idx].name
                )))
            }
        };
        cfg.set_value(idx, value);
    }
    Ok(cfg)
}

/// Flattens a free-form reason onto one line so it cannot break the
/// line-oriented format.
fn one_line(reason: &str) -> String {
    reason.replace(['\n', '\r'], " ")
}

impl TunerCheckpoint {
    /// Format version written by [`render`](Self::render).
    pub const VERSION: u64 = 1;

    /// An FNV-1a fingerprint of the parameter space (names and domains),
    /// used to refuse resuming a checkpoint against a different space.
    pub fn fingerprint(space: &ParamSpace) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in space.params() {
            eat(p.name.as_bytes());
            eat(format!("{}", p.domain).as_bytes());
            eat(&[0]);
        }
        h
    }

    /// Checks that this checkpoint belongs to the run described by
    /// (`space`, `settings`, `n_instances`).
    pub fn validate(
        &self,
        space: &ParamSpace,
        settings: &TunerSettings,
        n_instances: usize,
    ) -> Result<(), CheckpointError> {
        if self.space_fingerprint != Self::fingerprint(space) {
            return Err(CheckpointError::Mismatch(
                "parameter space differs from the checkpointed run".to_string(),
            ));
        }
        if self.seed != settings.seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint seed {:#x} != settings seed {:#x}",
                self.seed, settings.seed
            )));
        }
        if self.n_instances != n_instances {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has {} instances, run has {n_instances}",
                self.n_instances
            )));
        }
        if self.weights.len() != space.len() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has {} weight vectors, space has {} parameters",
                self.weights.len(),
                space.len()
            )));
        }
        Ok(())
    }

    /// Renders the checkpoint as its on-disk text form.
    pub fn render(&self) -> String {
        let n = self.weights.len();
        let mut out = String::new();
        out.push_str("# racesim tuner checkpoint\n");
        out.push_str(&format!("version = {}\n\n", Self::VERSION));

        out.push_str("[tuner]\n");
        out.push_str(&format!("seed = {:016x}\n", self.seed));
        out.push_str(&format!("n_instances = {}\n", self.n_instances));
        out.push_str(&format!(
            "space_fingerprint = {:016x}\n",
            self.space_fingerprint
        ));
        out.push_str(&format!("next_iteration = {}\n", self.next_iteration));
        out.push_str(&format!("budget_remaining = {}\n", self.budget_remaining));
        out.push_str(&format!("evals_used = {}\n", self.evals_used));
        out.push_str(&format!("retries = {}\n", self.retries));
        out.push_str(&format!("failed_configs = {}\n\n", self.failed_configs));

        out.push_str("[rng]\n");
        out.push_str(&format!(
            "state = {:016x} {:016x} {:016x} {:016x}\n\n",
            self.rng_state[0], self.rng_state[1], self.rng_state[2], self.rng_state[3]
        ));

        out.push_str("[model]\n");
        out.push_str(&format!("spread = {}\n", f64_hex(self.spread)));
        out.push_str(&format!("weights = {n}\n"));
        for (i, w) in self.weights.iter().enumerate() {
            if w.is_empty() {
                out.push_str(&format!("w{i} = -\n"));
            } else {
                let hexes: Vec<String> = w.iter().map(|&x| f64_hex(x)).collect();
                out.push_str(&format!("w{i} = {}\n", hexes.join(" ")));
            }
        }
        out.push('\n');

        out.push_str("[elites]\n");
        out.push_str(&format!("count = {}\n", self.elites.len()));
        for (i, (cfg, cost)) in self.elites.iter().enumerate() {
            out.push_str(&format!(
                "e{i} = {} {}\n",
                encode_config(cfg, n),
                f64_hex(*cost)
            ));
        }
        out.push('\n');

        out.push_str("[quarantine]\n");
        out.push_str(&format!("count = {}\n", self.quarantine.len()));
        for (i, (inst, reason)) in self.quarantine.iter().enumerate() {
            out.push_str(&format!("q{i} = {inst} {}\n", one_line(reason)));
        }
        out.push('\n');

        out.push_str("[cache]\n");
        out.push_str(&format!("count = {}\n", self.cache.len()));
        for (i, (cfg, inst, cost)) in self.cache.iter().enumerate() {
            out.push_str(&format!(
                "c{i} = {} {inst} {}\n",
                encode_config(cfg, n),
                f64_hex(*cost)
            ));
        }
        out.push('\n');

        out.push_str("[history]\n");
        out.push_str(&format!("count = {}\n", self.history.len()));
        for (i, h) in self.history.iter().enumerate() {
            out.push_str(&format!(
                "h{i} = {} {} {} {} {}\n",
                h.iteration,
                h.configs_raced,
                h.blocks_used,
                h.evals_used,
                f64_hex(h.best_cost)
            ));
            out.push_str(&format!("h{i}.events = {}\n", h.eliminations.len()));
            for (j, e) in h.eliminations.iter().enumerate() {
                match e {
                    RaceLogEntry::Eliminated {
                        config,
                        after_blocks,
                    } => out.push_str(&format!("h{i}.ev{j} = elim {config} {after_blocks}\n")),
                    RaceLogEntry::Failed {
                        config,
                        after_blocks,
                        reason,
                    } => out.push_str(&format!(
                        "h{i}.ev{j} = failed {config} {after_blocks} {}\n",
                        one_line(reason)
                    )),
                }
            }
        }
        out
    }

    /// Parses the on-disk text form against `space` (needed to decode
    /// configurations and validate their shape).
    pub fn parse(space: &ParamSpace, text: &str) -> Result<TunerCheckpoint, CheckpointError> {
        let mut kv: HashMap<&str, &str> = HashMap::new();
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| CheckpointError::Malformed(format!("line without '=': {line:?}")))?;
            kv.insert(k.trim(), v.trim());
        }
        let get = |key: &str| -> Result<&str, CheckpointError> {
            kv.get(key)
                .copied()
                .ok_or_else(|| CheckpointError::Malformed(format!("missing key {key:?}")))
        };

        let version = parse_u64(get("version")?)?;
        if version != Self::VERSION {
            return Err(CheckpointError::Malformed(format!(
                "unsupported checkpoint version {version}"
            )));
        }

        let rng_words: Vec<&str> = get("state")?.split_whitespace().collect();
        if rng_words.len() != 4 {
            return Err(CheckpointError::Malformed(
                "rng state must have 4 words".to_string(),
            ));
        }
        let mut rng_state = [0u64; 4];
        for (slot, w) in rng_state.iter_mut().zip(&rng_words) {
            *slot = parse_hex_u64(w)?;
        }

        let n_weights = parse_usize(get("weights")?)?;
        let mut weights = Vec::with_capacity(n_weights);
        for i in 0..n_weights {
            let v = get(&format!("w{i}"))?;
            if v == "-" {
                weights.push(Vec::new());
            } else {
                weights.push(
                    v.split_whitespace()
                        .map(parse_f64_hex)
                        .collect::<Result<Vec<f64>, _>>()?,
                );
            }
        }

        // The `count` keys collide across sections in the flat map, so
        // the four lists are parsed in a second, section-aware pass (the
        // counts are implied by the lines present).
        let mut elites = Vec::new();
        let mut quarantine = Vec::new();
        let mut cache = Vec::new();
        let mut history: Vec<IterationSummary> = Vec::new();
        let mut section = String::new();
        for raw in text.lines() {
            let line = raw.trim();
            if line.starts_with('[') {
                section = line
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .to_string();
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = match line.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => continue,
            };
            match (section.as_str(), k) {
                ("elites", k) if k.starts_with('e') => {
                    let (code, cost) = v.split_once(' ').ok_or_else(|| {
                        CheckpointError::Malformed(format!("bad elite line {v:?}"))
                    })?;
                    elites.push((decode_config(space, code)?, parse_f64_hex(cost.trim())?));
                }
                ("quarantine", k) if k.starts_with('q') => {
                    let (inst, reason) = match v.split_once(' ') {
                        Some((i, r)) => (i, r.to_string()),
                        None => (v, String::new()),
                    };
                    quarantine.push((parse_usize(inst)?, reason));
                }
                ("cache", k) if k.starts_with('c') && k != "count" => {
                    let fields: Vec<&str> = v.split_whitespace().collect();
                    if fields.len() != 3 {
                        return Err(CheckpointError::Malformed(format!("bad cache line {v:?}")));
                    }
                    cache.push((
                        decode_config(space, fields[0])?,
                        parse_usize(fields[1])?,
                        parse_f64_hex(fields[2])?,
                    ));
                }
                ("history", k) if k.starts_with('h') => {
                    if k.ends_with(".events") {
                        continue; // implied by the ev lines
                    }
                    if let Some((_, ev)) = k.split_once(".ev") {
                        let _ = parse_usize(ev)?;
                        let h = history.last_mut().ok_or_else(|| {
                            CheckpointError::Malformed("event before history entry".to_string())
                        })?;
                        let fields: Vec<&str> = v.splitn(4, ' ').collect();
                        match fields.as_slice() {
                            ["elim", config, after] => {
                                h.eliminations.push(RaceLogEntry::Eliminated {
                                    config: parse_usize(config)?,
                                    after_blocks: parse_usize(after)?,
                                })
                            }
                            ["failed", config, after] => {
                                h.eliminations.push(RaceLogEntry::Failed {
                                    config: parse_usize(config)?,
                                    after_blocks: parse_usize(after)?,
                                    reason: String::new(),
                                })
                            }
                            ["failed", config, after, reason] => {
                                h.eliminations.push(RaceLogEntry::Failed {
                                    config: parse_usize(config)?,
                                    after_blocks: parse_usize(after)?,
                                    reason: (*reason).to_string(),
                                })
                            }
                            _ => {
                                return Err(CheckpointError::Malformed(format!(
                                    "bad history event {v:?}"
                                )))
                            }
                        }
                    } else {
                        let fields: Vec<&str> = v.split_whitespace().collect();
                        if fields.len() != 5 {
                            return Err(CheckpointError::Malformed(format!(
                                "bad history line {v:?}"
                            )));
                        }
                        history.push(IterationSummary {
                            iteration: parse_usize(fields[0])?,
                            configs_raced: parse_usize(fields[1])?,
                            blocks_used: parse_usize(fields[2])?,
                            evals_used: parse_u64(fields[3])?,
                            best_cost: parse_f64_hex(fields[4])?,
                            eliminations: Vec::new(),
                        });
                    }
                }
                _ => {}
            }
        }

        Ok(TunerCheckpoint {
            next_iteration: parse_usize(get("next_iteration")?)?,
            budget_remaining: parse_u64(get("budget_remaining")?)?,
            evals_used: parse_u64(get("evals_used")?)?,
            retries: parse_u64(get("retries")?)?,
            failed_configs: parse_u64(get("failed_configs")?)?,
            seed: parse_hex_u64(get("seed")?)?,
            n_instances: parse_usize(get("n_instances")?)?,
            space_fingerprint: parse_hex_u64(get("space_fingerprint")?)?,
            rng_state,
            spread: parse_f64_hex(get("spread")?)?,
            weights,
            elites,
            quarantine,
            cache,
            history,
        })
    }

    /// Writes the checkpoint to `path` atomically and durably: the text
    /// is written to a sibling `.tmp` file, fsync'd, and then renamed
    /// over `path`. A crash mid-write leaves at worst a stale `.tmp`
    /// next to the previous (still valid) checkpoint; a crash around the
    /// rename leaves either the old or the new file, never a mix. The
    /// parent directory is fsync'd too (best effort) so the rename
    /// itself survives power loss.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        use std::io::Write as _;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let io = |ctx: &Path| {
            let ctx = ctx.display().to_string();
            move |e: std::io::Error| CheckpointError::Io(format!("{ctx}: {e}"))
        };
        let mut f = fs::File::create(&tmp).map_err(io(&tmp))?;
        f.write_all(self.render().as_bytes()).map_err(io(&tmp))?;
        f.sync_all().map_err(io(&tmp))?;
        drop(f);
        fs::rename(&tmp, path).map_err(io(path))?;
        // Durability of the rename needs the directory entry flushed;
        // not all filesystems support opening a directory, so failures
        // here are ignored rather than surfaced.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and parses a checkpoint from `path`, decoding its
    /// configurations against `space`.
    pub fn read(path: &Path, space: &ParamSpace) -> Result<TunerCheckpoint, CheckpointError> {
        let text = fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        TunerCheckpoint::parse(space, &text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_categorical("predictor", &["bimodal", "gshare"]);
        s.add_integer("rob", &[32, 64, 128]);
        s.add_bool("prefetch");
        s
    }

    fn sample(space: &ParamSpace) -> TunerCheckpoint {
        let mut elite = space.default_configuration();
        elite.set_categorical(space, "predictor", "gshare");
        elite.set_integer(space, "rob", 128);
        TunerCheckpoint {
            next_iteration: 2,
            budget_remaining: 1234,
            evals_used: 766,
            retries: 3,
            failed_configs: 1,
            seed: 0xBADC_AB1E,
            n_instances: 12,
            space_fingerprint: TunerCheckpoint::fingerprint(space),
            rng_state: [1, u64::MAX, 0xdead_beef, 42],
            spread: 0.36,
            weights: vec![vec![0.75, 0.25], Vec::new(), vec![0.1, 0.9]],
            elites: vec![(elite, 0.125)],
            quarantine: vec![(3, "transient fault persisted through 4 attempts".into())],
            // 0.1 is inexact in binary; its bit pattern must round-trip.
            cache: vec![(space.default_configuration(), 7, 0.1)],
            history: vec![IterationSummary {
                iteration: 0,
                configs_raced: 8,
                blocks_used: 6,
                evals_used: 40,
                best_cost: 0.5,
                eliminations: vec![
                    RaceLogEntry::Eliminated {
                        config: 4,
                        after_blocks: 5,
                    },
                    RaceLogEntry::Failed {
                        config: 2,
                        after_blocks: 3,
                        reason: "non-finite cost NaN".into(),
                    },
                ],
            }],
        }
    }

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let s = space();
        let cp = sample(&s);
        let text = cp.render();
        let back = TunerCheckpoint::parse(&s, &text).expect("parses");
        assert_eq!(back.render(), text, "round-trip is bit-exact");
        assert_eq!(back.rng_state, cp.rng_state);
        assert_eq!(back.spread.to_bits(), cp.spread.to_bits());
        assert_eq!(back.elites, cp.elites);
        assert_eq!(back.cache[0].2.to_bits(), cp.cache[0].2.to_bits());
        assert_eq!(back.quarantine, cp.quarantine);
        assert_eq!(back.history.len(), 1);
        assert_eq!(back.history[0].eliminations, cp.history[0].eliminations);
    }

    #[test]
    fn legacy_checkpoint_with_a_pruned_line_parses_and_resumes() {
        use crate::tuner::{CostFn, RacingTuner, Tuner};
        struct Bowl;
        impl CostFn for Bowl {
            fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
                let rob = cfg.integer(space, "rob") as f64;
                (rob - 64.0).abs() + f64::from(cfg.flag(space, "prefetch")) + instance as f64
            }
        }
        let s = space();
        let settings = |max_iterations| TunerSettings {
            budget: 400,
            seed: 5,
            max_iterations,
            ..TunerSettings::default()
        };
        let full = RacingTuner::new(settings(None)).tune(&s, &Bowl, 6);
        assert!(full.history.len() >= 2, "the resume has work left to do");

        // Checkpoints written while the tuner still had a pruner carry a
        // `pruned = N` line in `[tuner]`; it is ignored on load.
        let dir = std::env::temp_dir().join("racesim-checkpoint-legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.txt");
        let _ = std::fs::remove_file(&path);
        RacingTuner::new(settings(Some(1)))
            .with_checkpoint(&path)
            .tune(&s, &Bowl, 6);
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        let legacy = text.replacen("retries = ", "pruned = 9\nretries = ", 1);
        assert!(legacy.contains("\npruned = 9\n"), "{legacy}");
        std::fs::write(&path, &legacy).unwrap();
        let cp = TunerCheckpoint::parse(&s, &legacy).expect("legacy text parses");
        assert_eq!(cp.render(), text, "the pruned line is the only difference");

        let resumed = RacingTuner::new(settings(None))
            .with_resume(&path)
            .tune(&s, &Bowl, 6);
        assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.best_cost.to_bits(), full.best_cost.to_bits());
        assert_eq!(resumed.evals_used, full.evals_used);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_loads_back() {
        let s = space();
        let cp = sample(&s);
        let dir = std::env::temp_dir().join("racesim-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.txt");
        cp.save(&path).expect("saves");
        assert!(!path.with_extension("txt.tmp").exists(), "tmp file renamed");
        let back = TunerCheckpoint::read(&path, &s).expect("reads");
        assert_eq!(back.render(), cp.render());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validation_rejects_foreign_checkpoints() {
        let s = space();
        let cp = sample(&s);
        let st = TunerSettings {
            seed: 0xBADC_AB1E,
            ..TunerSettings::default()
        };
        assert!(cp.validate(&s, &st, 12).is_ok());
        assert!(matches!(
            cp.validate(&s, &st, 13),
            Err(CheckpointError::Mismatch(_))
        ));
        let other_seed = TunerSettings { seed: 1, ..st };
        assert!(matches!(
            cp.validate(&s, &other_seed, 12),
            Err(CheckpointError::Mismatch(_))
        ));
        let mut other_space = ParamSpace::new();
        other_space.add_bool("different");
        assert!(matches!(
            cp.validate(&other_space, &st, 12),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn corrupt_text_is_a_typed_error() {
        let s = space();
        assert!(matches!(
            TunerCheckpoint::parse(&s, "version = 99\n"),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            TunerCheckpoint::parse(&s, "not a checkpoint"),
            Err(CheckpointError::Malformed(_))
        ));
        let cp = sample(&s);
        let mangled = cp.render().replace("F0", "Z9");
        assert!(matches!(
            TunerCheckpoint::parse(&s, &mangled),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
