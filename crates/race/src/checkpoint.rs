//! Tuner checkpoints: crash-safe snapshots of the full racing state.
//!
//! A checkpoint is written atomically (temp file + rename) after every
//! completed iteration and captures *everything* the next iteration
//! depends on — the raw RNG state, the sampling model, the elites, the
//! budget, the cost cache, the instance quarantine and the run history —
//! so a run killed mid-flight and resumed from its checkpoint produces a
//! bit-identical result to an uninterrupted run with the same seed.
//!
//! On disk a checkpoint is one JSON document written and read through
//! [`racesim_telemetry::json`], the codec the journal and the wire
//! frames share. Every `f64` is stored as its IEEE-754 bit pattern in a
//! JSON unsigned integer, so NaN payloads, `-0.0` and subnormals come
//! back exact — a correctness requirement, not a nicety.
//! Configurations are stored as their [`Configuration::code`].

use crate::param::{Configuration, ParamSpace};
use crate::race::RaceLogEntry;
use crate::tuner::{IterationSummary, TunerSettings};
use racesim_telemetry::json::{self, Value};
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
    /// campaign, parameter space, or instance count differ).
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
    /// The campaign identity the run was started with (see
    /// [`RacingTuner::with_campaign`](crate::RacingTuner::with_campaign)).
    pub campaign: String,
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

/// An `f64` as its exact bit pattern.
fn bits(x: f64) -> Value {
    x.to_bits().into()
}

/// An `f64` from its bit pattern (see [`bits`]).
fn as_float(v: &Value) -> Option<f64> {
    v.as_u64().map(f64::from_bits)
}

fn as_index(v: &Value) -> Option<usize> {
    v.as_u64()?.try_into().ok()
}

/// An array of exactly `N` items.
fn as_tuple<const N: usize>(v: &Value) -> Option<&[Value; N]> {
    v.as_arr()?.try_into().ok()
}

/// An array item, read with `read` (the positional twin of
/// [`Value::field`]).
fn item<'a, T>(v: &'a Value, read: impl FnOnce(&'a Value) -> Option<T>) -> Result<T, String> {
    read(v).ok_or_else(|| format!("unexpected item {v}"))
}

fn config(space: &ParamSpace, v: &Value) -> Result<Configuration, String> {
    Configuration::from_code(space, item(v, Value::as_str)?)
}

impl TunerCheckpoint {
    /// Format version written by [`render`](Self::render).
    pub const VERSION: u64 = 2;

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
    /// (`space`, `settings`, `campaign`, `n_instances`).
    pub fn validate(
        &self,
        space: &ParamSpace,
        settings: &TunerSettings,
        campaign: &str,
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
        if self.campaign != campaign {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint campaign `{}` != this run's `{campaign}`",
                self.campaign
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

    /// Renders the checkpoint as its on-disk JSON document.
    pub fn render(&self) -> String {
        let history = self.history.iter().map(|h| {
            let eliminations = h.eliminations.iter().map(|e| match e {
                RaceLogEntry::Eliminated {
                    config,
                    after_blocks,
                } => Value::obj([
                    ("config", Value::from(*config)),
                    ("after_blocks", (*after_blocks).into()),
                ]),
                RaceLogEntry::Failed {
                    config,
                    after_blocks,
                    reason,
                } => Value::obj([
                    ("config", Value::from(*config)),
                    ("after_blocks", (*after_blocks).into()),
                    ("reason", reason.into()),
                ]),
            });
            Value::obj([
                ("iteration", Value::from(h.iteration)),
                ("configs_raced", h.configs_raced.into()),
                ("blocks_used", h.blocks_used.into()),
                ("evals_used", h.evals_used.into()),
                ("best_cost", bits(h.best_cost)),
                ("eliminations", Value::arr(eliminations)),
            ])
        });
        let weights = self
            .weights
            .iter()
            .map(|w| Value::arr(w.iter().map(|&x| bits(x))));
        let elites = self
            .elites
            .iter()
            .map(|(cfg, cost)| Value::arr([cfg.code().into(), bits(*cost)]));
        let quarantine = self
            .quarantine
            .iter()
            .map(|(inst, reason)| Value::arr([Value::from(*inst), reason.into()]));
        let cache = self
            .cache
            .iter()
            .map(|(cfg, inst, cost)| Value::arr([cfg.code().into(), (*inst).into(), bits(*cost)]));
        let doc = Value::obj([
            ("version", Value::from(Self::VERSION)),
            ("seed", self.seed.into()),
            ("campaign", self.campaign.as_str().into()),
            ("n_instances", self.n_instances.into()),
            ("space_fingerprint", self.space_fingerprint.into()),
            ("next_iteration", self.next_iteration.into()),
            ("budget_remaining", self.budget_remaining.into()),
            ("evals_used", self.evals_used.into()),
            ("retries", self.retries.into()),
            ("failed_configs", self.failed_configs.into()),
            ("rng_state", Value::arr(self.rng_state)),
            ("spread", bits(self.spread)),
            ("weights", Value::arr(weights)),
            ("elites", Value::arr(elites)),
            ("quarantine", Value::arr(quarantine)),
            ("cache", Value::arr(cache)),
            ("history", Value::arr(history)),
        ]);
        format!("{doc}\n")
    }

    /// Parses the on-disk JSON document against `space` (needed to
    /// decode configurations and validate their shape).
    pub fn parse(space: &ParamSpace, text: &str) -> Result<TunerCheckpoint, CheckpointError> {
        json::parse(text)
            .map_err(|e| format!("not JSON: {e}"))
            .and_then(|doc| Self::from_json(space, &doc))
            .map_err(CheckpointError::Malformed)
    }

    fn from_json(space: &ParamSpace, doc: &Value) -> Result<TunerCheckpoint, String> {
        let version = doc.field("version", Value::as_u64)?;
        if version != Self::VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let mut rng_state = [0u64; 4];
        for (slot, w) in rng_state
            .iter_mut()
            .zip(doc.field("rng_state", as_tuple::<4>)?)
        {
            *slot = item(w, Value::as_u64)?;
        }
        let weights = doc
            .field("weights", Value::as_arr)?
            .iter()
            .map(|w| {
                item(w, Value::as_arr)?
                    .iter()
                    .map(|x| item(x, as_float))
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        let elites = doc
            .field("elites", Value::as_arr)?
            .iter()
            .map(|e| {
                let [cfg, cost] = item(e, as_tuple)?;
                Ok((config(space, cfg)?, item(cost, as_float)?))
            })
            .collect::<Result<_, String>>()?;
        let quarantine = doc
            .field("quarantine", Value::as_arr)?
            .iter()
            .map(|q| {
                let [inst, reason] = item(q, as_tuple)?;
                Ok((
                    item(inst, as_index)?,
                    item(reason, Value::as_str)?.to_string(),
                ))
            })
            .collect::<Result<_, String>>()?;
        let cache = doc
            .field("cache", Value::as_arr)?
            .iter()
            .map(|c| {
                let [cfg, inst, cost] = item(c, as_tuple)?;
                Ok((
                    config(space, cfg)?,
                    item(inst, as_index)?,
                    item(cost, as_float)?,
                ))
            })
            .collect::<Result<_, String>>()?;
        let elimination = |e: &Value| -> Result<RaceLogEntry, String> {
            let config = e.field("config", as_index)?;
            let after_blocks = e.field("after_blocks", as_index)?;
            Ok(match e.get("reason") {
                None => RaceLogEntry::Eliminated {
                    config,
                    after_blocks,
                },
                Some(reason) => RaceLogEntry::Failed {
                    config,
                    after_blocks,
                    reason: item(reason, Value::as_str)?.to_string(),
                },
            })
        };
        let history = doc
            .field("history", Value::as_arr)?
            .iter()
            .map(|h| {
                Ok(IterationSummary {
                    iteration: h.field("iteration", as_index)?,
                    configs_raced: h.field("configs_raced", as_index)?,
                    blocks_used: h.field("blocks_used", as_index)?,
                    evals_used: h.field("evals_used", Value::as_u64)?,
                    best_cost: h.field("best_cost", as_float)?,
                    eliminations: h
                        .field("eliminations", Value::as_arr)?
                        .iter()
                        .map(elimination)
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(TunerCheckpoint {
            next_iteration: doc.field("next_iteration", as_index)?,
            budget_remaining: doc.field("budget_remaining", Value::as_u64)?,
            evals_used: doc.field("evals_used", Value::as_u64)?,
            retries: doc.field("retries", Value::as_u64)?,
            failed_configs: doc.field("failed_configs", Value::as_u64)?,
            seed: doc.field("seed", Value::as_u64)?,
            campaign: doc.field("campaign", Value::as_str)?.to_string(),
            n_instances: doc.field("n_instances", as_index)?,
            space_fingerprint: doc.field("space_fingerprint", Value::as_u64)?,
            rng_state,
            spread: doc.field("spread", as_float)?,
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

    /// A checkpoint exercising every section, with floats chosen to
    /// break a lossy float encoding: NaN with payload bits, signed zero,
    /// the smallest subnormal, infinities, `f64::MAX` and values with no
    /// short decimal form.
    fn sample(space: &ParamSpace) -> TunerCheckpoint {
        let mut elite = space.default_configuration();
        elite.set_categorical(space, "predictor", "gshare");
        elite.set_integer(space, "rob", 128);
        let mut other = space.default_configuration();
        other.set_integer(space, "rob", 32);
        let nan = f64::from_bits(0x7ff8_dead_beef_cafe);
        let summary = |iteration, best_cost| IterationSummary {
            iteration,
            configs_raced: 8,
            blocks_used: 6,
            evals_used: 40,
            best_cost,
            eliminations: Vec::new(),
        };
        TunerCheckpoint {
            next_iteration: 4,
            budget_remaining: 1234,
            evals_used: 766,
            retries: 3,
            failed_configs: 1,
            seed: 0xBADC_AB1E,
            campaign: "core=a53 scale=1/4096".into(),
            n_instances: 12,
            space_fingerprint: TunerCheckpoint::fingerprint(space),
            rng_state: [1, u64::MAX, 0xdead_beef, 42],
            spread: 5e-324,
            weights: vec![
                vec![0.75, 0.30000000000000004],
                Vec::new(),
                vec![0.1, -1.000000000000002],
            ],
            elites: vec![
                (elite.clone(), 0.125),
                (space.default_configuration(), nan),
                (other, -0.0),
            ],
            // A multi-line reason with quotes comes back as written.
            quarantine: vec![(3, "transient fault\npersisted \"4\" times".into())],
            // 0.1 is inexact in binary; its bit pattern must round-trip.
            cache: vec![
                (space.default_configuration(), 7, 0.1),
                (elite, 0, nan),
                (space.default_configuration(), 1, -0.0),
                (space.default_configuration(), 2, 5e-324),
            ],
            history: vec![
                IterationSummary {
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
                    ..summary(0, 0.5)
                },
                summary(1, f64::INFINITY),
                summary(2, f64::NEG_INFINITY),
                summary(3, f64::MAX),
            ],
        }
    }

    /// Every float a checkpoint holds, as raw bits.
    fn float_bits(cp: &TunerCheckpoint) -> Vec<u64> {
        let costs = cp.elites.iter().map(|e| e.1);
        let costs = costs.chain(cp.cache.iter().map(|c| c.2));
        let costs = costs.chain(cp.history.iter().map(|h| h.best_cost));
        std::iter::once(cp.spread)
            .chain(cp.weights.iter().flatten().copied())
            .chain(costs)
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let s = space();
        let cp = sample(&s);
        let text = cp.render();
        let back = TunerCheckpoint::parse(&s, &text).expect("parses");
        assert_eq!(back.render(), text, "round-trip is bit-exact");
        // A rendering that loses a NaN payload can still re-render
        // stably, so the floats are compared by their bits as well.
        assert_eq!(float_bits(&back), float_bits(&cp));
        assert_eq!(back.rng_state, cp.rng_state);
        let configs = |cp: &TunerCheckpoint| {
            let elites = cp.elites.iter().map(|e| e.0.clone());
            elites
                .chain(cp.cache.iter().map(|c| c.0.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(configs(&back), configs(&cp));
        assert_eq!(back.campaign, cp.campaign);
        assert_eq!(back.quarantine, cp.quarantine);
        assert_eq!(back.history.len(), cp.history.len());
        for (a, b) in back.history.iter().zip(&cp.history) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.eliminations, b.eliminations);
        }
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
        let campaign = cp.campaign.as_str();
        assert!(cp.validate(&s, &st, campaign, 12).is_ok());
        assert!(matches!(
            cp.validate(&s, &st, campaign, 13),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            cp.validate(&s, &st, "core=a53 scale=1/8192", 12),
            Err(CheckpointError::Mismatch(_))
        ));
        let other_seed = TunerSettings { seed: 1, ..st };
        assert!(matches!(
            cp.validate(&s, &other_seed, campaign, 12),
            Err(CheckpointError::Mismatch(_))
        ));
        let mut other_space = ParamSpace::new();
        other_space.add_bool("different");
        assert!(matches!(
            cp.validate(&other_space, &st, campaign, 12),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn corrupt_text_is_a_typed_error() {
        let s = space();
        for bad in [
            "not a checkpoint",
            "version = 99\n",
            "{\"version\":99}",
            "{\"version\":2}",
            "[]",
        ] {
            assert!(matches!(
                TunerCheckpoint::parse(&s, bad),
                Err(CheckpointError::Malformed(_))
            ));
        }
        let cp = sample(&s);
        for (from, to) in [("F0", "Z9"), ("F0", "F9"), ("\"spread\":", "\"spread\":-")] {
            let mangled = cp.render().replacen(from, to, 1);
            assert!(matches!(
                TunerCheckpoint::parse(&s, &mangled),
                Err(CheckpointError::Malformed(_))
            ));
        }
    }
}
