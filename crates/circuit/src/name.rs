//! Netlist names, stored compactly and rendered on demand.

use std::fmt::{self, Write as _};

/// The name of a node, device or pin.
///
/// A generated name is a `&'static str` prefix, optionally followed by an
/// index and by a `#serial` suffix: [`Name::indexed`]`("ml", 3)` reads
/// `ml3`, and [`Circuit::fresh_node`](crate::Circuit::fresh_node) appends
/// `#n`. Creating one formats, allocates and hashes nothing. A
/// hand-written name (`Name::from(String)`, or [`Circuit::node`]) is
/// stored as its text.
///
/// A name is rendered to text only where something reads it: through
/// [`fmt::Display`], or compared with a string by `PartialEq<str>`, which
/// renders into the comparison and allocates nothing.
///
/// [`Circuit::node`]: crate::Circuit::node
///
/// # Examples
///
/// ```
/// use ftcam_circuit::Name;
///
/// let ml = Name::indexed("ml", 3);
/// assert_eq!(ml.to_string(), "ml3");
/// assert!(ml == *"ml3");
/// assert!(Name::new("wen") == *"wen");
/// assert_eq!(Name::from(String::from("b.mid")).to_string(), "b.mid");
/// ```
#[derive(Debug, Clone)]
pub struct Name {
    stem: Stem,
    index: Option<u32>,
    serial: Option<u32>,
}

#[derive(Debug, Clone)]
enum Stem {
    Static(&'static str),
    Text(Box<str>),
}

impl Name {
    /// The fixed name `text`.
    pub const fn new(text: &'static str) -> Self {
        Self {
            stem: Stem::Static(text),
            index: None,
            serial: None,
        }
    }

    /// The name `{prefix}{index}`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    pub fn indexed(prefix: &'static str, index: usize) -> Self {
        Self {
            index: Some(u32::try_from(index).expect("name index fits in u32")),
            ..Self::new(prefix)
        }
    }

    /// This name followed by `#{serial}`.
    pub(crate) fn with_serial(self, serial: u32) -> Self {
        Self {
            serial: Some(serial),
            ..self
        }
    }

    fn stem(&self) -> &str {
        match &self.stem {
            Stem::Static(s) => s,
            Stem::Text(s) => s,
        }
    }
}

impl From<&'static str> for Name {
    fn from(text: &'static str) -> Self {
        Self::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        Self {
            stem: Stem::Text(text.into_boxed_str()),
            index: None,
            serial: None,
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.stem())?;
        if let Some(index) = self.index {
            write!(f, "{index}")?;
        }
        if let Some(serial) = self.serial {
            write!(f, "#{serial}")?;
        }
        Ok(())
    }
}

impl PartialEq<str> for Name {
    /// `true` if the name renders to `text`.
    fn eq(&self, text: &str) -> bool {
        let mut rest = Unmatched(text);
        text.starts_with(self.stem()) && write!(rest, "{self}").is_ok() && rest.0.is_empty()
    }
}

/// A `fmt::Write` sink that consumes the text each write must match.
struct Unmatched<'a>(&'a str);

impl fmt::Write for Unmatched<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
        Ok(())
    }
}

/// The node and pin names of a circuit, shared (not copied) with the
/// results of its analyses for their label-based lookups.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    /// Node names, by node index.
    pub nodes: Vec<Name>,
    /// Pin labels, by pin index.
    pub pins: Vec<Name>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_prefix_index_and_serial() {
        assert_eq!(Name::new("gnd").to_string(), "gnd");
        assert_eq!(Name::indexed("c_slbwire", 63).to_string(), "c_slbwire63");
        let fresh = Name::indexed("c16.mid1.", 7).with_serial(12);
        assert_eq!(fresh.to_string(), "c16.mid1.7#12");
        assert_eq!(
            Name::new("footer_rail").with_serial(0).to_string(),
            "footer_rail#0"
        );
        assert_eq!(
            Name::from("x#1".to_string()).with_serial(2).to_string(),
            "x#1#2"
        );
    }

    #[test]
    fn equality_with_text_is_equality_of_the_rendering() {
        let sl12 = Name::indexed("sl", 12);
        assert!(sl12 == *"sl12");
        assert!(Name::indexed("sl1", 2) == *"sl12");
        for other in ["sl1", "sl123", "sl12#0", "slb12", "", "s"] {
            assert!(sl12 != *other, "{other}");
        }
        let fresh = Name::indexed("r2.mid2.", 5).with_serial(9);
        assert!(fresh == *"r2.mid2.5#9");
        assert!(fresh != *"r2.mid2.5#90");
        assert!(fresh != *"r2.mid2.5");
        let text = Name::from("b.mid".to_string());
        assert!(text == *"b.mid");
        assert!(Name::new("en") != *"wen");
    }
}
