//! ASIL levels and ISO 26262 recommendation notation.

use std::fmt;

/// Automotive Safety Integrity Level.
///
/// ISO 26262 defines four ASILs from A (lowest) to D (highest), plus the
/// QM (Quality Management) category for components that cannot cause
/// safety risks upon failure. The paper targets **ASIL-D** for the whole
/// AD pipeline, since every module affects car motion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Asil {
    /// Quality Management — no safety requirements.
    Qm,
    /// ASIL A — lowest integrity level.
    A,
    /// ASIL B.
    B,
    /// ASIL C.
    C,
    /// ASIL D — highest integrity level (fail-operational AD).
    D,
}

impl Asil {
    /// All ASILs with recommendations in the Part-6 tables (QM excluded).
    pub const TABLE_LEVELS: [Asil; 4] = [Asil::A, Asil::B, Asil::C, Asil::D];

    /// Parses a level as the CLI's `--asil` and the daemon's `asil`
    /// field take it: `A`, `B`, `C`, `D` or `QM`, in any case.
    pub fn from_level(s: &str) -> Option<Asil> {
        match s.to_ascii_uppercase().as_str() {
            "A" => Some(Asil::A),
            "B" => Some(Asil::B),
            "C" => Some(Asil::C),
            "D" => Some(Asil::D),
            "QM" => Some(Asil::Qm),
            _ => None,
        }
    }

    /// Index into a 4-column recommendation row (A..D).
    pub(crate) fn column(self) -> Option<usize> {
        match self {
            Asil::Qm => None,
            Asil::A => Some(0),
            Asil::B => Some(1),
            Asil::C => Some(2),
            Asil::D => Some(3),
        }
    }
}

impl fmt::Display for Asil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Asil::Qm => "QM",
            Asil::A => "ASIL-A",
            Asil::B => "ASIL-B",
            Asil::C => "ASIL-C",
            Asil::D => "ASIL-D",
        };
        f.write_str(s)
    }
}

/// ISO 26262 recommendation strength for a technique at a given ASIL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Recommendation {
    /// `o` — no recommendation for or against.
    NotRequired,
    /// `+` — recommended.
    Recommended,
    /// `++` — highly recommended.
    HighlyRecommended,
}

impl Recommendation {
    /// The standard's notation: `o`, `+`, or `++`.
    pub fn notation(self) -> &'static str {
        match self {
            Recommendation::NotRequired => "o",
            Recommendation::Recommended => "+",
            Recommendation::HighlyRecommended => "++",
        }
    }
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asil_ordering() {
        assert!(Asil::Qm < Asil::A);
        assert!(Asil::A < Asil::D);
        assert_eq!(Asil::D.column(), Some(3));
        assert_eq!(Asil::Qm.column(), None);
    }

    #[test]
    fn levels_parse_in_any_case() {
        let got: Vec<_> = ["a", "Qm", "d", "ASIL-D"]
            .into_iter()
            .map(Asil::from_level)
            .collect();
        assert_eq!(got, [Some(Asil::A), Some(Asil::Qm), Some(Asil::D), None]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Asil::D.to_string(), "ASIL-D");
        assert_eq!(Asil::Qm.to_string(), "QM");
        assert_eq!(Recommendation::HighlyRecommended.to_string(), "++");
    }
}
