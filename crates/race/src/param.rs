//! Parameter spaces and configurations.

use std::collections::HashMap;
use std::fmt;

/// The domain of one tunable parameter.
///
/// The paper: "There are parameters that require a binary true or false
/// value … Other parameters can take on a relatively large number of
/// possibilities … to avoid wasting irace's budget, these parameters are
/// given a limited set of discrete values. Other parameters can assume a
/// discrete set of parameters to select a particular feature."
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// An unordered choice among named alternatives (e.g. which branch
    /// predictor).
    Categorical(Vec<String>),
    /// An *ordered* set of discrete numeric values (e.g. ROB sizes).
    Integer(Vec<i64>),
    /// True/false.
    Bool,
}

impl Domain {
    /// Number of candidate values.
    pub fn cardinality(&self) -> usize {
        match self {
            Domain::Categorical(v) => v.len(),
            Domain::Integer(v) => v.len(),
            Domain::Bool => 2,
        }
    }

    /// The `j`-th candidate value (`j < cardinality()`; for a flag, 0 is
    /// `false` and 1 is `true`).
    pub fn candidate(&self, j: usize) -> Value {
        match self {
            Domain::Categorical(_) => Value::Cat(j as u16),
            Domain::Integer(_) => Value::Int(j as u16),
            Domain::Bool => Value::Flag(j == 1),
        }
    }

    /// Decodes a [`Value::code`] against this domain. Only the exact
    /// code [`Value::code`] writes for one of the domain's candidates is
    /// accepted: `C{k}`/`I{k}` with `k` in range, and `F0` or `F1`.
    ///
    /// # Errors
    ///
    /// Names the code that does not fit.
    pub fn value_of(&self, code: &str) -> Result<Value, String> {
        let index = |kind: char, n: usize| {
            let k: u16 = code.strip_prefix(kind)?.parse().ok()?;
            (usize::from(k) < n).then_some(k)
        };
        let value = match self {
            Domain::Categorical(cs) => index('C', cs.len()).map(Value::Cat),
            Domain::Integer(vs) => index('I', vs.len()).map(Value::Int),
            Domain::Bool => Some(Value::Flag(code == "F1")),
        };
        value
            .filter(|v| v.code() == code)
            .ok_or_else(|| format!("value code {code:?} does not fit the domain {self}"))
    }
}

/// One tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Unique name.
    pub name: String,
    /// Candidate values.
    pub domain: Domain,
}

/// The value a configuration assigns to one parameter, stored as an index
/// into its domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Index into a categorical domain.
    Cat(u16),
    /// Index into an ordered integer domain.
    Int(u16),
    /// A boolean.
    Flag(bool),
}

impl Value {
    /// The value's code: `C{k}` or `I{k}` for the `k`-th candidate of a
    /// categorical or integer domain, `F0`/`F1` for a flag. Checkpoints,
    /// wire frames and `frozen` journal events carry values this way;
    /// [`Domain::value_of`] reads them back.
    pub fn code(self) -> String {
        match self {
            Value::Cat(k) => format!("C{k}"),
            Value::Int(k) => format!("I{k}"),
            Value::Flag(b) => format!("F{}", u8::from(b)),
        }
    }
}

/// An ordered collection of parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamSpace {
    params: Vec<Param>,
    by_name: HashMap<String, usize>,
}

impl ParamSpace {
    /// Creates an empty space.
    pub fn new() -> ParamSpace {
        ParamSpace::default()
    }

    fn push(&mut self, p: Param) {
        assert!(
            !self.by_name.contains_key(&p.name),
            "duplicate parameter {}",
            p.name
        );
        assert!(p.domain.cardinality() >= 1, "empty domain for {}", p.name);
        self.by_name.insert(p.name.clone(), self.params.len());
        self.params.push(p);
    }

    /// Adds a parameter with a caller-built domain, **without**
    /// normalising the candidate list.
    ///
    /// This is the escape hatch for spaces read from external
    /// descriptions, where the candidate list must be preserved verbatim;
    /// the builder methods ([`ParamSpace::add_integer`],
    /// [`ParamSpace::add_categorical`]) canonicalise instead. A
    /// duplicated or unsorted list skews the sampling weights — the
    /// `racesim-analyzer` lints RA002/RA003 exist to catch that on this
    /// path.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate parameter name or an empty domain.
    pub fn add_param(&mut self, p: Param) {
        self.push(p);
    }

    /// Adds a categorical parameter. Repeated choices are dropped (first
    /// occurrence wins) so no alternative carries twice the sampling
    /// weight; choice order is otherwise preserved — the first choice is
    /// the default.
    pub fn add_categorical(&mut self, name: &str, choices: &[&str]) {
        let mut cs: Vec<String> = Vec::with_capacity(choices.len());
        for c in choices {
            if !cs.iter().any(|x| x == c) {
                cs.push((*c).to_string());
            }
        }
        self.push(Param {
            name: name.to_string(),
            domain: Domain::Categorical(cs),
        });
    }

    /// Adds an ordered discrete numeric parameter. The candidate list is
    /// sorted ascending and deduplicated: elite-neighbourhood sampling
    /// treats list adjacency as value adjacency, and a duplicated
    /// candidate would silently double its sampling weight.
    pub fn add_integer(&mut self, name: &str, values: &[i64]) {
        let mut vs = values.to_vec();
        vs.sort_unstable();
        vs.dedup();
        self.push(Param {
            name: name.to_string(),
            domain: Domain::Integer(vs),
        });
    }

    /// Adds a boolean parameter.
    pub fn add_bool(&mut self, name: &str) {
        self.push(Param {
            name: name.to_string(),
            domain: Domain::Bool,
        });
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The parameters, in insertion order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// The index of a named parameter.
    ///
    /// # Panics
    ///
    /// Panics if no parameter has this name.
    pub fn index_of(&self, name: &str) -> usize {
        *self
            .by_name
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter {name}"))
    }

    /// The index of a named parameter, or `None` if the space has no
    /// parameter with this name — the non-panicking form of
    /// [`index_of`](Self::index_of) for callers handling external input.
    pub fn try_index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Total number of distinct configurations (saturating).
    pub fn cardinality(&self) -> u128 {
        self.params
            .iter()
            .map(|p| p.domain.cardinality() as u128)
            .product()
    }

    /// The default configuration: the first value of every domain.
    pub fn default_configuration(&self) -> Configuration {
        Configuration {
            values: self
                .params
                .iter()
                .map(|p| match &p.domain {
                    Domain::Categorical(_) => Value::Cat(0),
                    Domain::Integer(_) => Value::Int(0),
                    Domain::Bool => Value::Flag(false),
                })
                .collect(),
        }
    }
}

/// A complete assignment of values to a [`ParamSpace`]'s parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    pub(crate) values: Vec<Value>,
}

impl Configuration {
    /// The raw value for parameter `idx`.
    pub fn value(&self, idx: usize) -> Value {
        self.values[idx]
    }

    /// Sets the raw value for parameter `idx`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the value kind mismatches the domain or
    /// the index is out of the domain's range — the caller is expected to
    /// construct values through the sampling model or the setters below.
    pub fn set_value(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    /// The selected choice of a categorical parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not categorical.
    pub fn categorical<'s>(&self, space: &'s ParamSpace, name: &str) -> &'s str {
        let idx = space.index_of(name);
        match (&space.params()[idx].domain, self.values[idx]) {
            (Domain::Categorical(cs), Value::Cat(i)) => &cs[i as usize],
            _ => panic!("parameter {name} is not categorical"),
        }
    }

    /// The selected value of an integer parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not an integer parameter.
    pub fn integer(&self, space: &ParamSpace, name: &str) -> i64 {
        let idx = space.index_of(name);
        match (&space.params()[idx].domain, self.values[idx]) {
            (Domain::Integer(vs), Value::Int(i)) => vs[i as usize],
            _ => panic!("parameter {name} is not an integer parameter"),
        }
    }

    /// The value of a boolean parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not boolean.
    pub fn flag(&self, space: &ParamSpace, name: &str) -> bool {
        let idx = space.index_of(name);
        match (&space.params()[idx].domain, self.values[idx]) {
            (Domain::Bool, Value::Flag(b)) => b,
            _ => panic!("parameter {name} is not boolean"),
        }
    }

    /// Sets a categorical parameter by choice name.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not categorical or the choice is
    /// unknown.
    pub fn set_categorical(&mut self, space: &ParamSpace, name: &str, choice: &str) {
        let idx = space.index_of(name);
        match &space.params()[idx].domain {
            Domain::Categorical(cs) => {
                let i = cs
                    .iter()
                    .position(|c| c == choice)
                    .unwrap_or_else(|| panic!("{name} has no choice {choice}"));
                self.values[idx] = Value::Cat(i as u16);
            }
            _ => panic!("parameter {name} is not categorical"),
        }
    }

    /// Sets an integer parameter to one of its candidate values.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not integer-valued or `v` is not a
    /// candidate.
    pub fn set_integer(&mut self, space: &ParamSpace, name: &str, v: i64) {
        let idx = space.index_of(name);
        match &space.params()[idx].domain {
            Domain::Integer(vs) => {
                let i = vs
                    .iter()
                    .position(|x| *x == v)
                    .unwrap_or_else(|| panic!("{name} has no candidate value {v}"));
                self.values[idx] = Value::Int(i as u16);
            }
            _ => panic!("parameter {name} is not an integer parameter"),
        }
    }

    /// Sets a boolean parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not boolean.
    pub fn set_flag(&mut self, space: &ParamSpace, name: &str, v: bool) {
        let idx = space.index_of(name);
        match &space.params()[idx].domain {
            Domain::Bool => self.values[idx] = Value::Flag(v),
            _ => panic!("parameter {name} is not boolean"),
        }
    }

    /// The configuration's code: its [`Value::code`]s joined by dots,
    /// e.g. `C0.I3.F1`.
    pub fn code(&self) -> String {
        let codes: Vec<String> = self.values.iter().map(|v| v.code()).collect();
        codes.join(".")
    }

    /// Decodes a [`code`](Self::code) against `space`, checking its arity
    /// and every value against its parameter's domain.
    ///
    /// # Errors
    ///
    /// Describes the arity mismatch or the first value that does not fit.
    pub fn from_code(space: &ParamSpace, code: &str) -> Result<Configuration, String> {
        let codes: Vec<&str> = if code.is_empty() {
            Vec::new()
        } else {
            code.split('.').collect()
        };
        if codes.len() != space.len() {
            return Err(format!(
                "configuration code {code:?} has {} values, the space has {} parameters",
                codes.len(),
                space.len()
            ));
        }
        let values = space
            .params()
            .iter()
            .zip(codes)
            .map(|(p, c)| p.domain.value_of(c).map_err(|e| format!("{}: {e}", p.name)))
            .collect::<Result<_, _>>()?;
        Ok(Configuration { values })
    }

    /// Renders the configuration as `name=value` pairs.
    pub fn render(&self, space: &ParamSpace) -> String {
        let mut out = String::new();
        for (p, v) in space.params().iter().zip(&self.values) {
            if !out.is_empty() {
                out.push_str(", ");
            }
            match (&p.domain, v) {
                (Domain::Categorical(cs), Value::Cat(i)) => {
                    out.push_str(&format!("{}={}", p.name, cs[*i as usize]));
                }
                (Domain::Integer(vs), Value::Int(i)) => {
                    out.push_str(&format!("{}={}", p.name, vs[*i as usize]));
                }
                (Domain::Bool, Value::Flag(b)) => {
                    out.push_str(&format!("{}={}", p.name, b));
                }
                _ => out.push_str(&format!("{}=<corrupt>", p.name)),
            }
        }
        out
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Categorical(cs) => write!(f, "{{{}}}", cs.join("|")),
            Domain::Integer(vs) => write!(
                f,
                "[{}]",
                vs.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            Domain::Bool => f.write_str("{true|false}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_categorical("predictor", &["bimodal", "gshare", "tournament"]);
        s.add_integer("rob", &[32, 64, 128, 192]);
        s.add_bool("prefetch");
        s
    }

    #[test]
    fn accessors_roundtrip() {
        let s = space();
        let mut c = s.default_configuration();
        assert_eq!(c.categorical(&s, "predictor"), "bimodal");
        assert_eq!(c.integer(&s, "rob"), 32);
        assert!(!c.flag(&s, "prefetch"));

        c.set_categorical(&s, "predictor", "tournament");
        c.set_integer(&s, "rob", 128);
        c.set_flag(&s, "prefetch", true);
        assert_eq!(c.categorical(&s, "predictor"), "tournament");
        assert_eq!(c.integer(&s, "rob"), 128);
        assert!(c.flag(&s, "prefetch"));
    }

    #[test]
    fn cardinality() {
        assert_eq!(space().cardinality(), 3 * 4 * 2);
    }

    #[test]
    fn render_is_readable() {
        let s = space();
        let c = s.default_configuration();
        assert_eq!(c.render(&s), "predictor=bimodal, rob=32, prefetch=false");
    }

    #[test]
    fn candidates_are_sorted_and_deduplicated() {
        let mut s = ParamSpace::new();
        s.add_integer("x", &[16, 4, 8, 4, 2, 16]);
        s.add_categorical("c", &["b", "a", "b"]);
        match &s.params()[0].domain {
            Domain::Integer(vs) => assert_eq!(vs, &[2, 4, 8, 16]),
            d => panic!("unexpected domain {d}"),
        }
        match &s.params()[1].domain {
            // First occurrence wins; order is meaning, not magnitude.
            Domain::Categorical(cs) => assert_eq!(cs, &["b", "a"]),
            d => panic!("unexpected domain {d}"),
        }
        // The raw path keeps whatever it is given (the analyzer lints
        // police it instead).
        s.add_param(Param {
            name: "raw".to_string(),
            domain: Domain::Integer(vec![8, 4, 8]),
        });
        match &s.params()[2].domain {
            Domain::Integer(vs) => assert_eq!(vs, &[8, 4, 8]),
            d => panic!("unexpected domain {d}"),
        }
    }

    #[test]
    fn value_codes_roundtrip_and_validate() {
        let s = space();
        let mut c = s.default_configuration();
        c.set_value(0, Value::Cat(2));
        c.set_value(1, Value::Int(3));
        c.set_value(2, Value::Flag(true));
        assert_eq!(c.code(), "C2.I3.F1");
        assert_eq!(Configuration::from_code(&s, &c.code()), Ok(c));
        assert_eq!(s.default_configuration().code(), "C0.I0.F0");
        for bad in [
            "C2.I3",
            "C3.I3.F1",
            "C2.I4.F1",
            "I0.I3.F1",
            "C2.I3.F9",
            "C2.I3.F",
            "C2.I3.Fx",
            "C2.I3.F01",
            "C+1.I3.F1",
            "C.I3.F1",
            "C2.I3.F1.F1",
            "",
            "C2.I3.é",
        ] {
            assert!(
                Configuration::from_code(&s, bad).is_err(),
                "{bad:?} must not decode"
            );
        }
        let flag = &s.params()[2].domain;
        assert_eq!(flag.value_of("F0"), Ok(Value::Flag(false)));
        for bad in ["F9", "F", "F10", "C0", ""] {
            assert!(flag.value_of(bad).is_err(), "{bad:?} must not decode");
        }
        let empty = ParamSpace::new();
        assert_eq!(
            Configuration::from_code(&empty, ""),
            Ok(empty.default_configuration())
        );
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_names_rejected() {
        let mut s = space();
        s.add_bool("rob");
    }

    #[test]
    #[should_panic(expected = "no candidate value")]
    fn setting_off_grid_integer_panics() {
        let s = space();
        let mut c = s.default_configuration();
        c.set_integer(&s, "rob", 100);
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_parameter_panics() {
        let s = space();
        let c = s.default_configuration();
        let _ = c.flag(&s, "nonexistent");
    }
}
