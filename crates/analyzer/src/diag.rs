//! The shared diagnostics engine: lint identities, severities, and the
//! report container with human-readable and JSON rendering.
//!
//! Lint codes are **stable**: once shipped, a code keeps its meaning
//! forever so downstream tooling can filter on it. Codes are grouped by
//! pass: `RA0xx` parameter space, `RA1xx` platform invariants, `RA2xx`
//! kernel static analysis, `RA3xx` measurement effects, `RA4xx` kernel IR
//! and campaign coverage.

use racesim_telemetry::json::Value;
use std::fmt;

/// How bad a finding is.
///
/// Ordering is by increasing severity, so `max()` over a report gives the
/// overall verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing, nothing wrong.
    Info,
    /// Probably a specification mistake; simulation still meaningful.
    Warn,
    /// The model is in a state no hardware could be in. Results from it
    /// are unusable and `racesim lint` exits non-zero.
    Error,
}

impl Severity {
    /// Lower-case label used in both renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

macro_rules! lints {
    ($(
        $(#[$doc:meta])*
        $variant:ident = ($code:literal, $name:literal, $sev:ident),
    )*) => {
        /// Every lint the analyzer can raise. See `DESIGN.md` for the
        /// rendered table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Lint {
            $( $(#[$doc])* $variant, )*
        }

        impl Lint {
            /// All lints, in code order.
            pub const ALL: &'static [Lint] = &[ $(Lint::$variant,)* ];

            /// The stable `RAnnn` code.
            pub fn code(self) -> &'static str {
                match self { $(Lint::$variant => $code,)* }
            }

            /// The stable kebab-case name.
            pub fn name(self) -> &'static str {
                match self { $(Lint::$variant => $name,)* }
            }

            /// The default severity (a [`Diagnostic`] may override it).
            pub fn severity(self) -> Severity {
                match self { $(Lint::$variant => Severity::$sev,)* }
            }
        }
    };
}

lints! {
    // ---- RA0xx: parameter-space lints -------------------------------
    /// A tunable dimension with exactly one candidate: dead weight in the
    /// race, and often a sign that a candidate list was truncated.
    DegenerateDimension = ("RA001", "degenerate-dimension", Warn),
    /// The same candidate value appears more than once in a dimension,
    /// silently skewing the sampling distribution toward it.
    DuplicateCandidate = ("RA002", "duplicate-candidate", Warn),
    /// Integer candidates are not sorted ascending; elite-neighbourhood
    /// sampling assumes adjacency in the list means adjacency in value.
    UnsortedCandidates = ("RA003", "unsorted-candidates", Warn),
    /// Some configuration in the space produces a memory hierarchy whose
    /// latencies are not strictly ordered L1 < L2 < DRAM.
    LatencyOrdering = ("RA004", "latency-ordering", Error),
    /// Some configuration produces a cache whose associativity does not
    /// divide its line count, leaving a fractional set count.
    GeometryIndivisible = ("RA005", "geometry-indivisible", Error),
    /// Some configuration gives an out-of-order window smaller than the
    /// machine width, so the core can never issue at full width.
    WindowBelowWidth = ("RA006", "window-below-width", Error),
    /// Some configuration produces a cache with a non-power-of-two set
    /// count, which the set-index hash cannot address.
    NonPowerOfTwoSets = ("RA007", "non-power-of-two-sets", Error),
    /// A space entry that `apply` never reads: tuning it burns budget and
    /// the "tuned" value in reports is fiction.
    DeadParameter = ("RA008", "dead-parameter", Error),
    /// A platform field that varies across hardware but is covered by no
    /// space entry, so the race can never correct it.
    UntunedField = ("RA009", "untuned-field", Info),

    // ---- RA1xx: platform invariants ---------------------------------
    /// Cache set count is not a power of two (size, line size and
    /// associativity are inconsistent).
    PlatformCacheGeometry = ("RA101", "platform-cache-geometry", Error),
    /// Memory-level latencies are not strictly increasing along
    /// L1 -> L2 -> DRAM.
    PlatformLatencyOrdering = ("RA102", "platform-latency-ordering", Error),
    /// A pipeline structure is smaller than the width that feeds it.
    PlatformQueueRelation = ("RA103", "platform-queue-relation", Error),
    /// A resource count that must be at least one is zero.
    PlatformZeroResource = ("RA104", "platform-zero-resource", Error),
    /// Branch predictor table geometry is not a power of two.
    PlatformPredictorGeometry = ("RA105", "platform-predictor-geometry", Error),
    /// A latency that cannot be zero (division, memory access) is zero.
    PlatformZeroLatency = ("RA106", "platform-zero-latency", Error),
    /// Suspicious but simulable: a value far outside the envelope of the
    /// hardware the paper models.
    PlatformImplausibleValue = ("RA107", "platform-implausible-value", Warn),

    // ---- RA2xx: kernel static analysis ------------------------------
    /// A load may read reserved memory that no store and no data blob
    /// ever initialised: the simulated values are garbage.
    KernelUninitRead = ("RA201", "kernel-uninit-read", Error),
    /// Code that no path from the entry point reaches.
    KernelUnreachable = ("RA202", "kernel-unreachable-block", Warn),
    /// A branch whose target lies outside the program's code section.
    KernelBranchOutOfRange = ("RA203", "kernel-branch-out-of-range", Error),

    // ---- RA3xx: measurement-effects lints ---------------------------
    /// The board's measurement-noise amplitude exceeds the smallest cost
    /// difference the race's statistical tests can resolve at their
    /// significance level: eliminations degrade into coin flips.
    NoiseAboveResolution = ("RA301", "noise-above-resolution", Warn),

    // ---- RA4xx: kernel IR and campaign coverage ---------------------
    /// A register written and then overwritten with no read on any path:
    /// architecturally dead work the kernel spends cycles on.
    KernelDeadWrite = ("RA401", "kernel-dead-write", Warn),
    /// A counted loop whose statically resolved trip count is zero or
    /// one: the "loop" exercises no steady-state behaviour.
    KernelDegenerateLoop = ("RA402", "kernel-degenerate-loop", Warn),
    /// A loop with no exit edge: once entered the kernel can only be
    /// stopped by the instruction limit.
    KernelNoExitLoop = ("RA403", "kernel-no-exit-loop", Error),
    /// A tuned parameter that no kernel in the campaign suite can
    /// statically observe, although the model reads it: the whole suite
    /// races over noise for this dimension (RA008 lifted from one
    /// configuration to the campaign).
    SuiteDeadParameter = ("RA410", "suite-dead-parameter", Warn),
    /// A tuned parameter observable by very few kernels: its posterior
    /// rests on one or two measurements.
    SuiteNarrowParameter = ("RA411", "suite-narrow-parameter", Info),
    /// A kernel whose static observability signature is covered by
    /// another kernel's: it exercises no parameter uniquely.
    SuiteRedundantKernel = ("RA412", "suite-redundant-kernel", Info),
}

/// One finding: a lint instance attached to a concrete offender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub lint: Lint,
    /// Effective severity; defaults to [`Lint::severity`].
    pub severity: Severity,
    /// Human sentence describing this specific finding.
    pub message: String,
    /// Ordered key/value context: offending parameter, field, pc, kernel.
    /// Keys repeat across diagnostics of one lint, so JSON consumers can
    /// rely on them.
    pub context: Vec<(String, String)>,
}

impl Diagnostic {
    /// A diagnostic at the lint's default severity.
    pub fn new(lint: Lint, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            lint,
            severity: lint.severity(),
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Attaches a context key/value pair (builder style).
    pub fn with(mut self, key: &str, value: impl fmt::Display) -> Diagnostic {
        self.context.push((key.to_string(), value.to_string()));
        self
    }

    /// Overrides the severity (builder style).
    pub fn severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }

    /// Renders `code name: message [k=v, ...]` on one line.
    fn render_line(&self, out: &mut String) {
        out.push_str(&format!(
            "{}: {} [{}]: {}",
            self.severity,
            self.lint.code(),
            self.lint.name(),
            self.message
        ));
        if !self.context.is_empty() {
            out.push_str(" (");
            for (i, (k, v)) in self.context.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push(')');
        }
    }
}

/// An ordered collection of diagnostics from one or more passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Adds many diagnostics.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// All diagnostics, in insertion order (sort first for stable output).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// True if no diagnostics at all were raised.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Sorts by descending severity, then code, then context, then
    /// message, giving output that is stable across runs and platforms.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.lint.code().cmp(b.lint.code()))
                .then_with(|| a.context.cmp(&b.context))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Human-readable multi-line rendering, one diagnostic per line plus a
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            d.render_line(&mut out);
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        out
    }

    /// Machine-readable JSON rendering. The schema is stable:
    ///
    /// ```json
    /// {"version":3,
    ///  "summary":{"error":N,"warn":N,"info":N},
    ///  "diagnostics":[
    ///    {"code":"RA001","lint":"degenerate-dimension","severity":"warn",
    ///     "message":"...","context":{"param":"..."}}]}
    /// ```
    ///
    /// Context keys keep their insertion order; call [`Report::sort`]
    /// first for run-to-run stable diagnostic order.
    ///
    /// Schema history: version 2 added the RA6xx static-bounds lints and
    /// the `bounds` section of `racesim lint --suite --json`; version 3
    /// removed both again.
    pub fn render_json(&self) -> String {
        self.render_json_with(&[])
    }

    /// Like [`Report::render_json`], but appends extra top-level sections
    /// after `"diagnostics"`, in order (the `--suite` path uses this to
    /// embed the parameter-coverage matrix).
    pub fn render_json_with(&self, sections: &[(&str, Value)]) -> String {
        let diagnostics = self.diagnostics.iter().map(|d| {
            Value::obj([
                ("code", d.lint.code().into()),
                ("lint", d.lint.name().into()),
                ("severity", d.severity.label().into()),
                ("message", d.message.as_str().into()),
                (
                    "context",
                    Value::obj(d.context.iter().map(|(k, v)| (k.as_str(), v.into()))),
                ),
            ])
        });
        let head = [
            ("version", Value::from(3u64)),
            (
                "summary",
                Value::obj(
                    [Severity::Error, Severity::Warn, Severity::Info]
                        .map(|s| (s.label(), self.count(s).into())),
                ),
            ),
            ("diagnostics", Value::arr(diagnostics)),
        ];
        Value::obj(head.into_iter().chain(sections.iter().cloned())).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &lint in Lint::ALL {
            let code = lint.code();
            assert!(seen.insert(code), "duplicate lint code {code}");
            assert!(code.starts_with("RA") && code.len() == 5, "bad code {code}");
            assert!(code[2..].chars().all(|c| c.is_ascii_digit()));
            assert!(!lint.name().is_empty());
        }
    }

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn report_counts_and_verdict() {
        let mut r = Report::new();
        assert!(!r.has_errors());
        r.push(Diagnostic::new(Lint::DegenerateDimension, "only one value"));
        r.push(Diagnostic::new(Lint::LatencyOrdering, "l2 <= l1"));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warn), 1);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Info), 0);
    }

    #[test]
    fn sort_is_severity_major_then_code() {
        let mut r = Report::new();
        r.push(Diagnostic::new(Lint::DegenerateDimension, "w"));
        r.push(Diagnostic::new(Lint::UntunedField, "i"));
        r.push(Diagnostic::new(Lint::KernelUninitRead, "e"));
        r.sort();
        let codes: Vec<_> = r.diagnostics().iter().map(|d| d.lint.code()).collect();
        assert_eq!(codes, ["RA201", "RA001", "RA009"]);
    }

    #[test]
    fn json_escapes_and_shape() {
        let mut r = Report::new();
        r.push(
            Diagnostic::new(Lint::DuplicateCandidate, "say \"twice\"\n")
                .with("param", "l1d.latency"),
        );
        let json = r.render_json();
        assert!(json.starts_with("{\"version\":3,"));
        assert!(json.contains("\"say \\\"twice\\\"\\n\""));
        assert!(json.contains("\"context\":{\"param\":\"l1d.latency\"}"));
        assert!(json.contains("\"summary\":{\"error\":0,\"warn\":1,\"info\":0}"));
    }

    #[test]
    fn text_rendering_includes_code_and_context() {
        let mut r = Report::new();
        r.push(Diagnostic::new(Lint::KernelUninitRead, "load of garbage").with("pc", "0x1010"));
        let text = r.render_text();
        assert!(text.contains("error: RA201 [kernel-uninit-read]: load of garbage (pc=0x1010)"));
        assert!(text.contains("1 error(s), 0 warning(s), 0 note(s)"));
    }
}
