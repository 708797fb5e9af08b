//! The three ISO 26262 Part-6 recommendation tables the paper assesses
//! (its Tables 1–3): modeling/coding guidelines (Part-6 Table 1),
//! architectural design (Part-6 Table 3), and software unit design &
//! implementation (Part-6 Table 8).

use crate::asil::{Asil, Recommendation};

/// Which Part-6 table a topic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableId {
    /// Part-6 Table 1 — topics for modeling and coding guidelines
    /// (paper Table 1).
    CodingGuidelines,
    /// Part-6 Table 3 — principles for software architectural design
    /// (paper Table 2).
    ArchitecturalDesign,
    /// Part-6 Table 8 — design principles for software unit design and
    /// implementation (paper Table 3).
    UnitDesign,
}

impl TableId {
    /// The standard's table number within Part 6.
    pub fn part6_number(self) -> u8 {
        match self {
            TableId::CodingGuidelines => 1,
            TableId::ArchitecturalDesign => 3,
            TableId::UnitDesign => 8,
        }
    }

    /// The paper's own table number for this table.
    pub fn paper_number(self) -> u8 {
        match self {
            TableId::CodingGuidelines => 1,
            TableId::ArchitecturalDesign => 2,
            TableId::UnitDesign => 3,
        }
    }

    /// Title as printed in the standard/paper.
    pub fn title(self) -> &'static str {
        match self {
            TableId::CodingGuidelines => "Modeling/coding guidelines (ISO26262_6 Table 1)",
            TableId::ArchitecturalDesign => "Architectural design (ISO26262_6 Table 3)",
            TableId::UnitDesign => "SW unit design & implement. (ISO26262_6 Table 8)",
        }
    }
}

/// One row of a recommendation table: a technique/topic plus its
/// recommendation at each ASIL A–D.
#[derive(Debug, Clone, Copy)]
pub struct Topic {
    /// Owning table.
    pub table: TableId,
    /// 1-based row number as printed in the paper.
    pub row: u8,
    /// Topic text as printed in the paper.
    pub name: &'static str,
    /// Recommendations for ASIL A, B, C, D.
    pub levels: [Recommendation; 4],
}

impl Topic {
    /// Recommendation at `asil` (QM → `NotRequired`).
    pub fn at(&self, asil: Asil) -> Recommendation {
        match asil.column() {
            Some(c) => self.levels[c],
            None => Recommendation::NotRequired,
        }
    }

    /// Stable reference string, e.g. `"Part6.Table8.Row9"`.
    pub fn reference(&self) -> String {
        format!("Part6.Table{}.Row{}", self.table.part6_number(), self.row)
    }
}

use Recommendation::{HighlyRecommended as HR, NotRequired as O, Recommended as R};

/// Paper Table 1 — ISO 26262-6 Table 1: modeling and coding guidelines.
pub const CODING_GUIDELINES: [Topic; 8] = [
    Topic {
        table: TableId::CodingGuidelines,
        row: 1,
        name: "Enforcement of low complexity",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::CodingGuidelines,
        row: 2,
        name: "Use language subsets",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::CodingGuidelines,
        row: 3,
        name: "Enforcement of strong typing",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::CodingGuidelines,
        row: 4,
        name: "Use defensive implementation techniques",
        levels: [O, R, HR, HR],
    },
    Topic {
        table: TableId::CodingGuidelines,
        row: 5,
        name: "Use established design principles",
        levels: [R, R, R, HR],
    },
    Topic {
        table: TableId::CodingGuidelines,
        row: 6,
        name: "Use unambiguous graphical representation",
        levels: [R, HR, HR, HR],
    },
    Topic {
        table: TableId::CodingGuidelines,
        row: 7,
        name: "Use style guides",
        levels: [R, HR, HR, HR],
    },
    Topic {
        table: TableId::CodingGuidelines,
        row: 8,
        name: "Use naming conventions",
        levels: [HR, HR, HR, HR],
    },
];

/// Paper Table 2 — ISO 26262-6 Table 3: architectural design principles.
pub const ARCHITECTURAL_DESIGN: [Topic; 7] = [
    Topic {
        table: TableId::ArchitecturalDesign,
        row: 1,
        name: "Hierarchical structure of SW components",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::ArchitecturalDesign,
        row: 2,
        name: "Restricted size of software components",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::ArchitecturalDesign,
        row: 3,
        name: "Restricted size of interfaces",
        levels: [R, R, R, R],
    },
    Topic {
        table: TableId::ArchitecturalDesign,
        row: 4,
        name: "High cohesion in each software component",
        levels: [R, HR, HR, HR],
    },
    Topic {
        table: TableId::ArchitecturalDesign,
        row: 5,
        name: "Restricted coupling between SW components",
        levels: [R, HR, HR, HR],
    },
    Topic {
        table: TableId::ArchitecturalDesign,
        row: 6,
        name: "Appropriate scheduling properties",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::ArchitecturalDesign,
        row: 7,
        name: "Restricted use of interrupts",
        levels: [R, R, R, HR],
    },
];

/// Paper Table 3 — ISO 26262-6 Table 8: unit design & implementation.
pub const UNIT_DESIGN: [Topic; 10] = [
    Topic {
        table: TableId::UnitDesign,
        row: 1,
        name: "One entry and one exit point in functions",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 2,
        name: "No dynamic objects or variables, or else online test during their creation",
        levels: [R, HR, HR, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 3,
        name: "Initialization of variables",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 4,
        name: "No multiple use of variable names",
        levels: [R, HR, HR, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 5,
        name: "Avoid global variables or justify usage",
        levels: [R, R, HR, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 6,
        name: "Limited use of pointers",
        levels: [O, R, R, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 7,
        name: "No implicit type conversions",
        levels: [R, HR, HR, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 8,
        name: "No hidden data flow or control flow",
        levels: [R, HR, HR, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 9,
        name: "No unconditional jumps",
        levels: [HR, HR, HR, HR],
    },
    Topic {
        table: TableId::UnitDesign,
        row: 10,
        name: "No recursions",
        levels: [R, R, HR, HR],
    },
];

/// Looks up a topic by its reference string (`"Part6.Table8.Row9"`).
pub fn topic_by_reference(reference: &str) -> Option<&'static Topic> {
    all_topics().find(|t| t.reference() == reference)
}

/// Iterates every topic in all three tables.
pub fn all_topics() -> impl Iterator<Item = &'static Topic> {
    CODING_GUIDELINES
        .iter()
        .chain(ARCHITECTURAL_DESIGN.iter())
        .chain(UNIT_DESIGN.iter())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shapes_match_paper() {
        assert_eq!(CODING_GUIDELINES.len(), 8);
        assert_eq!(ARCHITECTURAL_DESIGN.len(), 7);
        assert_eq!(UNIT_DESIGN.len(), 10);
        assert_eq!(all_topics().count(), 25);
    }

    #[test]
    fn asil_d_everything_in_table1_highly_recommended_except_row_none() {
        // Paper: "all elements are highly recommended for ASIL D".
        for t in &CODING_GUIDELINES {
            assert_eq!(
                t.at(Asil::D),
                Recommendation::HighlyRecommended,
                "{}",
                t.name
            );
        }
    }

    #[test]
    fn spot_check_paper_values() {
        // Table 1 row 4: o + ++ ++
        let t = &CODING_GUIDELINES[3];
        assert_eq!(t.at(Asil::A), Recommendation::NotRequired);
        assert_eq!(t.at(Asil::B), Recommendation::Recommended);
        assert_eq!(t.at(Asil::C), Recommendation::HighlyRecommended);
        // Table 8 row 6 (pointers): o + + ++
        let p = &UNIT_DESIGN[5];
        assert_eq!(p.at(Asil::A), Recommendation::NotRequired);
        assert_eq!(p.at(Asil::B), Recommendation::Recommended);
        assert_eq!(p.at(Asil::D), Recommendation::HighlyRecommended);
        // Table 3 row 3 (interfaces): + + + +
        let i = &ARCHITECTURAL_DESIGN[2];
        for a in Asil::TABLE_LEVELS {
            assert_eq!(i.at(a), Recommendation::Recommended);
        }
        // Table 8 row 10 (recursion): + + ++ ++
        let r = &UNIT_DESIGN[9];
        assert_eq!(r.at(Asil::B), Recommendation::Recommended);
        assert_eq!(r.at(Asil::C), Recommendation::HighlyRecommended);
    }

    #[test]
    fn references_resolve() {
        let t = topic_by_reference("Part6.Table8.Row9").expect("exists");
        assert_eq!(t.name, "No unconditional jumps");
        assert!(topic_by_reference("Part6.Table9.Row1").is_none());
        assert_eq!(t.at(Asil::Qm), Recommendation::NotRequired);
    }

    #[test]
    fn paper_numbers() {
        assert_eq!(TableId::UnitDesign.paper_number(), 3);
        assert_eq!(TableId::UnitDesign.part6_number(), 8);
        assert!(TableId::ArchitecturalDesign.title().contains("Table 3"));
    }
}
