//! Scenario diagnostics: every parse/compile error names the section,
//! field, and source line it came from, extending the
//! `PlatformConfig::validate` no-panics posture to the whole scenario
//! stack.

use std::fmt;

use crate::toml::{Item, Sp, Table, TomlError, Value};

/// Why a scenario failed to parse or compile.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// Dotted section path (`""` for top level, `"matrix.plans[1]"` for
    /// array entries).
    pub section: String,
    /// The offending field, when one is known.
    pub field: Option<String>,
    /// 1-based source line, when the error maps to one (programmatic
    /// specs have no lines).
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl ScenarioError {
    /// An error with no position information (programmatic specs).
    pub fn msg(message: impl Into<String>) -> ScenarioError {
        ScenarioError { section: String::new(), field: None, line: None, message: message.into() }
    }

    fn at(section: &str, field: Option<&str>, line: Option<usize>, message: String) -> ScenarioError {
        ScenarioError {
            section: section.to_string(),
            field: field.map(str::to_string),
            line,
            message,
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut path = self.section.clone();
        if let Some(field) = &self.field {
            if !path.is_empty() {
                path.push('.');
            }
            path.push_str(field);
        }
        if !path.is_empty() {
            write!(f, "`{path}`")?;
            if let Some(line) = self.line {
                write!(f, " (line {line})")?;
            }
            write!(f, ": ")?;
        } else if let Some(line) = self.line {
            write!(f, "line {line}: ")?;
        }
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

impl From<TomlError> for ScenarioError {
    fn from(e: TomlError) -> ScenarioError {
        ScenarioError { section: String::new(), field: None, line: Some(e.line), message: e.message }
    }
}

/// Reads a rate in requests/second written as text: a finite number with
/// an optional `k` (×10³) or `m` (×10⁶) suffix, either case — `250000`,
/// `250k`, `2.5M`, `1e3`. The grammar of a scenario's string rates and of
/// `figures --rates`.
pub fn parse_rate(text: &str) -> Option<f64> {
    let raw = text.trim();
    let (digits, scale) = match raw.chars().next_back() {
        Some('k' | 'K') => (&raw[..raw.len() - 1], 1e3),
        Some('m' | 'M') => (&raw[..raw.len() - 1], 1e6),
        _ => (raw, 1.0),
    };
    digits.trim().parse::<f64>().ok().filter(|x| x.is_finite()).map(|x| x * scale)
}

/// A checked view over a parsed [`Table`]: typed getters record which keys
/// were consumed, and [`Reader::finish`] rejects anything left over, so
/// schema drift (a typo, a removed field) is an error instead of silence.
pub struct Reader<'a> {
    table: &'a Table,
    section: String,
    seen: Vec<&'a str>,
}

impl<'a> Reader<'a> {
    /// A reader over `table`, reporting errors under `section`.
    pub fn new(table: &'a Table, section: impl Into<String>) -> Reader<'a> {
        Reader { table, section: section.into(), seen: Vec::new() }
    }

    /// The section path this reader reports under.
    pub fn section(&self) -> &str {
        &self.section
    }

    fn err(&self, field: Option<&str>, line: Option<usize>, message: String) -> ScenarioError {
        ScenarioError::at(&self.section, field, line, message)
    }

    /// An error attached to `field` in this section.
    pub fn field_err(&self, field: &str, message: impl Into<String>) -> ScenarioError {
        self.err(Some(field), self.table.line_of(field), message.into())
    }

    fn value(&mut self, key: &'a str) -> Result<Option<&'a Sp<Value>>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Item::Value(v)) => {
                self.seen.push(key);
                Ok(Some(v))
            }
            Some(_) => Err(self.err(
                Some(key),
                self.table.line_of(key),
                "expected a value, found a table".into(),
            )),
        }
    }

    /// Optional string field.
    pub fn str_opt(&mut self, key: &'a str) -> Result<Option<String>, ScenarioError> {
        match self.value(key)? {
            None => Ok(None),
            Some(Sp { value: Value::Str(s), .. }) => Ok(Some(s.clone())),
            Some(sp) => Err(self.err(
                Some(key),
                Some(sp.line),
                format!("expected a string, found a {}", sp.value.type_name()),
            )),
        }
    }

    /// Optional boolean field.
    pub fn bool_opt(&mut self, key: &'a str) -> Result<Option<bool>, ScenarioError> {
        match self.value(key)? {
            None => Ok(None),
            Some(Sp { value: Value::Bool(b), .. }) => Ok(Some(*b)),
            Some(sp) => Err(self.err(
                Some(key),
                Some(sp.line),
                format!("expected a boolean, found a {}", sp.value.type_name()),
            )),
        }
    }

    /// Optional non-negative integer field.
    pub fn u64_opt(&mut self, key: &'a str) -> Result<Option<u64>, ScenarioError> {
        match self.value(key)? {
            None => Ok(None),
            Some(Sp { value: Value::Int(i), line }) => {
                let line = *line;
                let i = *i;
                u64::try_from(i).map(Some).map_err(|_| {
                    self.err(Some(key), Some(line), format!("{i} must be non-negative"))
                })
            }
            Some(sp) => Err(self.err(
                Some(key),
                Some(sp.line),
                format!("expected an integer, found a {}", sp.value.type_name()),
            )),
        }
    }

    /// Optional float field (integers coerce).
    pub fn f64_opt(&mut self, key: &'a str) -> Result<Option<f64>, ScenarioError> {
        match self.value(key)? {
            None => Ok(None),
            Some(Sp { value: Value::Float(x), .. }) => Ok(Some(*x)),
            Some(Sp { value: Value::Int(i), .. }) => Ok(Some(*i as f64)),
            Some(sp) => Err(self.err(
                Some(key),
                Some(sp.line),
                format!("expected a number, found a {}", sp.value.type_name()),
            )),
        }
    }

    /// Optional rate field in requests/second: a plain number, or a string
    /// in the [`parse_rate`] grammar — `"250k"`, `"2.5M"`.
    pub fn rate_opt(&mut self, key: &'a str) -> Result<Option<f64>, ScenarioError> {
        match self.value(key)? {
            None => Ok(None),
            Some(Sp { value: Value::Float(x), .. }) => Ok(Some(*x)),
            Some(Sp { value: Value::Int(i), .. }) => Ok(Some(*i as f64)),
            Some(Sp { value: Value::Str(s), line }) => parse_rate(s).map(Some).ok_or_else(|| {
                self.err(
                    Some(key),
                    Some(*line),
                    format!(
                        "'{}' is not a rate (use a number or e.g. \"250k\", \"2.5M\")",
                        s.trim()
                    ),
                )
            }),
            Some(sp) => Err(self.err(
                Some(key),
                Some(sp.line),
                format!("expected a rate, found a {}", sp.value.type_name()),
            )),
        }
    }

    /// Optional array of non-negative integers.
    pub fn u64_array_opt(&mut self, key: &'a str) -> Result<Option<Vec<u64>>, ScenarioError> {
        match self.value(key)? {
            None => Ok(None),
            Some(Sp { value: Value::Array(items), .. }) => {
                let mut out = Vec::with_capacity(items.len());
                for sp in items {
                    match &sp.value {
                        Value::Int(i) if *i >= 0 => out.push(*i as u64),
                        other => {
                            return Err(self.err(
                                Some(key),
                                Some(sp.line),
                                format!(
                                    "expected a non-negative integer element, found {}",
                                    other.type_name()
                                ),
                            ));
                        }
                    }
                }
                Ok(Some(out))
            }
            Some(sp) => Err(self.err(
                Some(key),
                Some(sp.line),
                format!("expected an array, found a {}", sp.value.type_name()),
            )),
        }
    }

    /// Optional array of strings.
    pub fn str_array_opt(&mut self, key: &'a str) -> Result<Option<Vec<String>>, ScenarioError> {
        match self.value(key)? {
            None => Ok(None),
            Some(Sp { value: Value::Array(items), .. }) => {
                let mut out = Vec::with_capacity(items.len());
                for sp in items {
                    match &sp.value {
                        Value::Str(s) => out.push(s.clone()),
                        other => {
                            return Err(self.err(
                                Some(key),
                                Some(sp.line),
                                format!("expected a string element, found {}", other.type_name()),
                            ));
                        }
                    }
                }
                Ok(Some(out))
            }
            Some(sp) => Err(self.err(
                Some(key),
                Some(sp.line),
                format!("expected an array, found a {}", sp.value.type_name()),
            )),
        }
    }

    /// Optional sub-table (consumes the key; absent tables return `None`).
    pub fn table_opt(&mut self, key: &'a str) -> Result<Option<&'a Table>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Item::Table(t)) => {
                self.seen.push(key);
                Ok(Some(t))
            }
            Some(_) => Err(self.err(
                Some(key),
                self.table.line_of(key),
                "expected a table, found a value".into(),
            )),
        }
    }

    /// Optional array of tables (`[[key]]` entries).
    pub fn tables_opt(&mut self, key: &'a str) -> Result<Option<&'a [Table]>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Item::ArrayOfTables(v)) => {
                self.seen.push(key);
                Ok(Some(v.as_slice()))
            }
            Some(_) => Err(self.err(
                Some(key),
                self.table.line_of(key),
                "expected an array of tables (`[[...]]`)".into(),
            )),
        }
    }

    /// Rejects any key the schema did not consume.
    pub fn finish(self) -> Result<(), ScenarioError> {
        for (key, line, _) in &self.table.entries {
            if !self.seen.iter().any(|s| s == key) {
                return Err(self.err(
                    Some(key),
                    Some(*line),
                    format!("unknown key `{key}`"),
                ));
            }
        }
        Ok(())
    }
}
