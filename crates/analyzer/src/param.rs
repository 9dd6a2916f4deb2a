//! Parameter-space linting (`RA0xx`).
//!
//! Two layers:
//!
//! * [`check_space`] — structural lints over a [`ParamSpace`] alone:
//!   degenerate dimensions, duplicate or unsorted candidate lists.
//! * [`check_model`] — semantic lints that need the `apply` function
//!   mapping a tuner [`Configuration`] onto a concrete
//!   [`Platform`]: cross-parameter hardware invariants
//!   probed through one-dimensional sweeps, dead parameters that no
//!   candidate can make visible in the platform, and a coverage report of
//!   platform fields no parameter ever reaches.
//!
//! The apply function is passed in as a closure (typically
//! `racesim-core`'s `params::apply` partially applied to a base platform)
//! so this crate stays independent of the crate that owns the schema.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Lint, Severity};
use crate::platform as platform_pass;
use racesim_race::{Configuration, Domain, ParamSpace, Value};
use racesim_sim::Platform;

/// Structural lints that need only the space itself.
pub fn check_space(space: &ParamSpace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for p in space.params() {
        match &p.domain {
            Domain::Categorical(choices) => {
                if choices.len() < 2 {
                    out.push(degenerate(&p.name, choices.len()));
                }
                let mut seen = BTreeSet::new();
                for c in choices {
                    if !seen.insert(c.as_str()) {
                        out.push(
                            Diagnostic::new(
                                Lint::DuplicateCandidate,
                                format!(
                                    "parameter `{}` lists candidate \"{c}\" more than once, \
                                     skewing the tuner's sampling toward it",
                                    p.name
                                ),
                            )
                            .with("param", &p.name)
                            .with("value", c),
                        );
                    }
                }
            }
            Domain::Integer(values) => {
                if values.len() < 2 {
                    out.push(degenerate(&p.name, values.len()));
                }
                let mut seen = BTreeSet::new();
                for v in values {
                    if !seen.insert(*v) {
                        out.push(
                            Diagnostic::new(
                                Lint::DuplicateCandidate,
                                format!(
                                    "parameter `{}` lists candidate {v} more than once, \
                                     skewing the tuner's sampling toward it",
                                    p.name
                                ),
                            )
                            .with("param", &p.name)
                            .with("value", v),
                        );
                    }
                }
                if values.windows(2).any(|w| w[0] > w[1]) {
                    out.push(
                        Diagnostic::new(
                            Lint::UnsortedCandidates,
                            format!(
                                "parameter `{}` has candidates out of ascending order; \
                                 neighbourhood-based perturbation will jump erratically",
                                p.name
                            ),
                        )
                        .with("param", &p.name)
                        .with(
                            "candidates",
                            values
                                .iter()
                                .map(|v| v.to_string())
                                .collect::<Vec<_>>()
                                .join(" "),
                        ),
                    );
                }
            }
            Domain::Bool => {}
        }
    }
    out
}

fn degenerate(name: &str, n: usize) -> Diagnostic {
    Diagnostic::new(
        Lint::DegenerateDimension,
        format!(
            "parameter `{name}` has {n} candidate value{}: the tuner cannot tune it",
            if n == 1 { "" } else { "s" }
        ),
    )
    .with("param", name)
}

/// Semantic lints probing the space through its apply function.
///
/// `anchors` are named starting configurations (at least the space's
/// default; callers usually add their best-guess). Invariant violations
/// *at* an anchor are errors — the space's home region is broken.
/// Violations reached by changing a single parameter away from an anchor
/// are warnings: the configuration is sampleable and still simulates, so
/// the race merely costs it; the space as shipped is usable.
pub fn check_model(
    space: &ParamSpace,
    anchors: &[(&str, Configuration)],
    apply: &dyn Fn(&Configuration) -> Platform,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Parameters that changed the platform at least once, and the set of
    // platform Debug paths some parameter reached.
    let mut live = vec![false; space.len()];
    let mut touched: BTreeSet<String> = BTreeSet::new();
    // (lint, param, field) -> (diagnostic, distinct offending values)
    type SweepKey = (&'static str, String, String);
    let mut sweep: BTreeMap<SweepKey, (Diagnostic, BTreeSet<String>)> = BTreeMap::new();

    for (anchor_name, anchor) in anchors {
        let anchor_platform = apply(anchor);
        let anchor_flat = flatten_debug(&format!("{anchor_platform:#?}"));
        let anchor_diags = platform_pass::check(&anchor_platform);
        let anchor_violations: BTreeSet<(&'static str, String)> = anchor_diags
            .iter()
            .map(|d| (d.lint.code(), context(d, "field")))
            .collect();
        for d in anchor_diags {
            let field = context(&d, "field");
            let (lint, severity) = map_platform_lint(&d);
            out.push(
                Diagnostic::new(lint, format!("at anchor `{anchor_name}`: {}", d.message))
                    .severity(severity)
                    .with("anchor", *anchor_name)
                    .with("field", field),
            );
        }

        for (i, p) in space.params().iter().enumerate() {
            for (j, value_label) in candidate_labels(&p.domain).into_iter().enumerate() {
                let mut cfg = (*anchor).clone();
                cfg.set_value(i, candidate_value(&p.domain, j));
                let probed = apply(&cfg);
                if probed != anchor_platform {
                    live[i] = true;
                    diff_paths(
                        &anchor_flat,
                        &flatten_debug(&format!("{probed:#?}")),
                        &mut touched,
                    );
                }
                for d in platform_pass::check(&probed) {
                    let field = context(&d, "field");
                    if anchor_violations.contains(&(d.lint.code(), field.clone())) {
                        continue; // pre-existing at the anchor, reported above
                    }
                    let (lint, _) = map_platform_lint(&d);
                    let entry = sweep
                        .entry((lint.code(), p.name.clone(), field.clone()))
                        .or_insert_with(|| {
                            (
                                Diagnostic::new(
                                    lint,
                                    format!(
                                        "setting `{}` alone reaches an unrealisable \
                                         platform: {}",
                                        p.name, d.message
                                    ),
                                )
                                .severity(Severity::Warn)
                                .with("param", &p.name)
                                .with("field", field),
                                BTreeSet::new(),
                            )
                        });
                    entry.1.insert(value_label.clone());
                }
            }
        }
    }

    for (_, (d, values)) in sweep {
        out.push(d.with("values", values.into_iter().collect::<Vec<_>>().join(" ")));
    }

    // Dead parameters: nothing they can be set to changes the platform at
    // any anchor. Before declaring one dead, try activating it by moving
    // one *other* parameter at a time (e.g. `pf.table` only matters once
    // `pf.kind` selects a table-based prefetcher).
    let default_anchor = anchors
        .first()
        .map(|(_, a)| (*a).clone())
        .unwrap_or_else(|| space.default_configuration());
    for (i, p) in space.params().iter().enumerate() {
        if live[i] {
            continue;
        }
        if !parameter_is_live(space, &default_anchor, i, apply, &mut touched) {
            out.push(
                Diagnostic::new(
                    Lint::DeadParameter,
                    format!(
                        "parameter `{}` never changes the platform, no matter how any \
                         single other parameter is set: the tuner would race over noise",
                        p.name
                    ),
                )
                .with("param", &p.name),
            );
        }
    }

    // Coverage: platform leaves no parameter ever reaches.
    if let Some((_, anchor)) = anchors.first() {
        let flat = flatten_debug(&format!("{:#?}", apply(anchor)));
        let untuned: Vec<String> = flat
            .keys()
            .filter(|path| {
                *path != "name"
                    && !touched.contains(*path)
                    && !touched.iter().any(|t| {
                        t.starts_with(&format!("{path}.")) || path.starts_with(&format!("{t}."))
                    })
            })
            .cloned()
            .collect();
        if !untuned.is_empty() {
            out.push(
                Diagnostic::new(
                    Lint::UntunedField,
                    format!(
                        "{} platform field(s) are outside the tuned space (fixed by public \
                         documentation or untouched by `apply`)",
                        untuned.len()
                    ),
                )
                .with("fields", untuned.join(" ")),
            );
        }
    }

    out
}

/// Convenience: structural and semantic lints together, with the space's
/// default configuration as the only anchor.
pub fn check(space: &ParamSpace, apply: &dyn Fn(&Configuration) -> Platform) -> Vec<Diagnostic> {
    let mut out = check_space(space);
    let default = space.default_configuration();
    out.extend(check_model(space, &[("default", default)], apply));
    out
}

/// Maps a platform-invariant finding surfaced through the apply function
/// onto the parameter-space lint family.
fn map_platform_lint(d: &Diagnostic) -> (Lint, Severity) {
    let lint = match d.lint {
        Lint::PlatformLatencyOrdering => Lint::LatencyOrdering,
        Lint::PlatformQueueRelation => Lint::WindowBelowWidth,
        Lint::PlatformCacheGeometry => {
            if d.context.iter().any(|(k, _)| k == "sets") {
                Lint::NonPowerOfTwoSets
            } else {
                Lint::GeometryIndivisible
            }
        }
        other => other,
    };
    (lint, lint.severity().min(d.severity))
}

fn context(d: &Diagnostic, key: &str) -> String {
    d.context
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

fn candidate_labels(domain: &Domain) -> Vec<String> {
    match domain {
        Domain::Categorical(choices) => choices.clone(),
        Domain::Integer(values) => values.iter().map(|v| v.to_string()).collect(),
        Domain::Bool => vec!["false".to_string(), "true".to_string()],
    }
}

pub(crate) fn candidate_value(domain: &Domain, j: usize) -> Value {
    match domain {
        Domain::Categorical(_) => Value::Cat(j as u16),
        Domain::Integer(_) => Value::Int(j as u16),
        Domain::Bool => Value::Flag(j == 1),
    }
}

/// Whether parameter `i` can change the platform at all: a direct sweep
/// away from `anchor`, or a sweep after any single-parameter activation
/// (e.g. `pf.table` only matters once `pf.kind` selects a table-based
/// prefetcher). Any platform Debug paths it reaches are added to
/// `touched`.
///
/// This is the one dead-parameter predicate: the per-config RA008 pass
/// and the suite-level RA410 coverage pass both call it, so their notion
/// of "the model can see this parameter" cannot drift apart.
pub fn parameter_is_live(
    space: &ParamSpace,
    anchor: &Configuration,
    i: usize,
    apply: &dyn Fn(&Configuration) -> Platform,
    touched: &mut BTreeSet<String>,
) -> bool {
    let base = apply(anchor);
    let base_flat = flatten_debug(&format!("{base:#?}"));
    let mut found = false;
    for j in 0..space.params()[i].domain.cardinality() {
        let mut cfg = anchor.clone();
        cfg.set_value(i, candidate_value(&space.params()[i].domain, j));
        let probed = apply(&cfg);
        if probed != base {
            diff_paths(&base_flat, &flatten_debug(&format!("{probed:#?}")), touched);
            found = true;
        }
    }
    found || activates_anywhere(space, anchor, i, apply, touched)
}

/// Whether parameter `i` changes the platform under some single-parameter
/// activation of the anchor. Any paths it reaches are added to `touched`.
fn activates_anywhere(
    space: &ParamSpace,
    anchor: &Configuration,
    i: usize,
    apply: &dyn Fn(&Configuration) -> Platform,
    touched: &mut BTreeSet<String>,
) -> bool {
    let mut found = false;
    for (q, other) in space.params().iter().enumerate() {
        if q == i {
            continue;
        }
        for w in 0..other.domain.cardinality() {
            let mut variant = anchor.clone();
            variant.set_value(q, candidate_value(&other.domain, w));
            let base = apply(&variant);
            let base_flat = flatten_debug(&format!("{base:#?}"));
            for j in 0..space.params()[i].domain.cardinality() {
                let mut cfg = variant.clone();
                cfg.set_value(i, candidate_value(&space.params()[i].domain, j));
                let probed = apply(&cfg);
                if probed != base {
                    diff_paths(&base_flat, &flatten_debug(&format!("{probed:#?}")), touched);
                    found = true;
                }
            }
            if found {
                return true;
            }
        }
    }
    false
}

/// Flattens `{:#?}` output into `dotted.path -> value` leaves.
///
/// Rather than requiring every config struct to implement a reflection
/// trait, the coverage pass walks the pretty-printed Debug tree: container
/// lines (`core: CoreConfig {`, `tlb: Some(`) push a path component,
/// closing brackets pop, and `field: value,` lines record a leaf.
fn flatten_debug(s: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut path: Vec<String> = Vec::new();
    let mut anon = 0usize;
    for line in s.lines() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with(['}', ']', ')']) {
            path.pop();
            continue;
        }
        let opens = t.ends_with(['{', '[', '(']);
        let body = t.trim_end_matches(['{', '[', '(']).trim_end();
        if opens {
            // "core: CoreConfig {" -> "core"; bare type/variant names
            // ("Platform {", "TlbConfig {") add no path component; "["
            // gets a synthetic one.
            let component = match body.split_once(':') {
                Some((field, _)) => field.trim().to_string(),
                None if body.is_empty() => {
                    anon += 1;
                    format!("#{anon}")
                }
                None => String::new(),
            };
            path.push(component);
            continue;
        }
        let body = body.trim_end_matches(',');
        let (key, value) = match body.split_once(':') {
            Some((k, v)) => (k.trim().to_string(), v.trim().to_string()),
            None => {
                anon += 1;
                (format!("#{anon}"), body.to_string())
            }
        };
        let prefix = path
            .iter()
            .filter(|c| !c.is_empty())
            .cloned()
            .collect::<Vec<_>>()
            .join(".");
        let full = if prefix.is_empty() {
            key
        } else {
            format!("{prefix}.{key}")
        };
        out.insert(full, value.to_string());
    }
    out
}

/// Adds every path present or valued differently between the two
/// flattened trees to `touched`.
fn diff_paths(
    a: &BTreeMap<String, String>,
    b: &BTreeMap<String, String>,
    touched: &mut BTreeSet<String>,
) {
    for (k, v) in a {
        if b.get(k) != Some(v) {
            touched.insert(k.clone());
        }
    }
    for k in b.keys() {
        if !a.contains_key(k) {
            touched.insert(k.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_race::Param;

    fn toy_space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_integer("l1d.latency", &[2, 3, 4]);
        s.add_integer("l2.latency", &[12, 15, 18]);
        s.add_bool("noop.flag");
        s
    }

    fn toy_apply(space: &ParamSpace) -> impl Fn(&Configuration) -> Platform + '_ {
        move |cfg| {
            let mut p = Platform::a53_like();
            p.mem.l1d.latency = cfg.integer(space, "l1d.latency") as u64;
            p.mem.l2.latency = cfg.integer(space, "l2.latency") as u64;
            p
        }
    }

    #[test]
    fn structural_lints_fire() {
        // The builder methods canonicalise, so a degenerate/unsorted/
        // duplicated space can only arrive through the raw `add_param`
        // path (e.g. a space read from an external description) — which
        // is exactly what these lints police.
        let mut s = ParamSpace::new();
        s.add_integer("one.value", &[4]);
        s.add_param(Param {
            name: "unsorted".to_string(),
            domain: Domain::Integer(vec![8, 4, 16]),
        });
        s.add_param(Param {
            name: "doubled".to_string(),
            domain: Domain::Integer(vec![4, 4, 8]),
        });
        s.add_categorical("cat.choice", &["a", "b"]);
        let codes: Vec<_> = check_space(&s).iter().map(|d| d.lint.code()).collect();
        assert!(codes.contains(&"RA001"));
        assert!(codes.contains(&"RA002"));
        assert!(codes.contains(&"RA003"));
    }

    #[test]
    fn clean_space_is_structurally_silent() {
        assert!(check_space(&toy_space()).is_empty());
    }

    #[test]
    fn one_d_sweep_finds_reachable_latency_inversion() {
        // The space admits l1d.latency=16 while l2 stays at its default
        // 15: a sampleable inversion, reported as a warning.
        let mut s = ParamSpace::new();
        s.add_integer("l1d.latency", &[3, 10, 16]);
        s.add_integer("l2.latency", &[15, 18]);
        let apply = |cfg: &Configuration| {
            let mut p = Platform::a53_like();
            p.mem.l1d.latency = cfg.integer(&s, "l1d.latency") as u64;
            p.mem.l2.latency = cfg.integer(&s, "l2.latency") as u64;
            p
        };
        let diags = check_model(&s, &[("default", s.default_configuration())], &apply);
        let d = diags
            .iter()
            .find(|d| d.lint == Lint::LatencyOrdering)
            .expect("RA004 for the sampleable l1d=16 >= l2=15 inversion");
        assert_eq!(
            d.severity,
            Severity::Warn,
            "reachable-but-sampleable is a warning"
        );
        assert!(d
            .context
            .iter()
            .any(|(k, v)| k == "param" && v == "l1d.latency"));
    }

    #[test]
    fn anchor_violations_are_errors() {
        let mut s = ParamSpace::new();
        s.add_integer("l1d.latency", &[3, 20]);
        s.add_integer("l2.latency", &[15, 18]);
        let apply = |cfg: &Configuration| {
            let mut p = Platform::a53_like();
            p.mem.l1d.latency = cfg.integer(&s, "l1d.latency") as u64;
            p.mem.l2.latency = cfg.integer(&s, "l2.latency") as u64;
            p
        };
        // The anchor itself picks the broken candidate: l1d=20 >= l2=15.
        let mut anchor = s.default_configuration();
        anchor.set_integer(&s, "l1d.latency", 20);
        let diags = check_model(&s, &[("default", anchor)], &apply);
        let d = diags
            .iter()
            .find(|d| d.lint == Lint::LatencyOrdering && d.severity == Severity::Error)
            .expect("default configuration itself is unrealisable");
        assert!(d.message.contains("anchor"));
    }

    #[test]
    fn dead_parameter_is_flagged() {
        let s = toy_space(); // noop.flag is never read by toy_apply
        let apply = toy_apply(&s);
        let diags = check_model(&s, &[("default", s.default_configuration())], &apply);
        let d = diags
            .iter()
            .find(|d| d.lint == Lint::DeadParameter)
            .expect("RA008 for noop.flag");
        assert!(d
            .context
            .iter()
            .any(|(k, v)| k == "param" && v == "noop.flag"));
    }

    #[test]
    fn conditionally_active_parameter_is_not_dead() {
        // `degree` only matters when `kind` enables the prefetcher — the
        // activation probe must discover that before calling it dead.
        let mut s = ParamSpace::new();
        s.add_categorical("pf.kind", &["none", "stride"]);
        s.add_integer("pf.degree", &[1, 2, 4]);
        let apply = |cfg: &Configuration| {
            let mut p = Platform::a53_like();
            if cfg.categorical(&s, "pf.kind") == "stride" {
                p.mem.prefetcher = racesim_mem::PrefetcherConfig::Stride {
                    table_entries: 64,
                    degree: cfg.integer(&s, "pf.degree") as u8,
                };
            }
            p
        };
        let diags = check_model(&s, &[("default", s.default_configuration())], &apply);
        assert!(
            !diags.iter().any(|d| d.lint == Lint::DeadParameter),
            "{diags:?}"
        );
    }

    #[test]
    fn untuned_fields_are_reported_once() {
        let s = toy_space();
        let apply = toy_apply(&s);
        let diags = check_model(&s, &[("default", s.default_configuration())], &apply);
        let untuned: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == Lint::UntunedField)
            .collect();
        assert_eq!(untuned.len(), 1);
        let fields = &untuned[0]
            .context
            .iter()
            .find(|(k, _)| k == "fields")
            .unwrap()
            .1;
        assert!(fields.contains("core.frequency_ghz"), "{fields}");
        assert!(!fields.contains("mem.l1d.latency"), "{fields}");
        assert!(!fields.contains("name"), "{fields}");
    }

    #[test]
    fn debug_flattening_handles_nested_options_and_enums() {
        let mut p = Platform::a53_like();
        p.mem.tlb = Some(racesim_mem::TlbConfig::default());
        let flat = flatten_debug(&format!("{p:#?}"));
        assert!(
            flat.contains_key("core.branch.direction.table_bits"),
            "{flat:?}"
        );
        assert!(flat.keys().any(|k| k.starts_with("mem.tlb.")), "{flat:?}");
        assert_eq!(flat.get("mem.l1d.size_kb").map(String::as_str), Some("32"));
    }
}
