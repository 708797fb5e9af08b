//! Naming-convention checks (paper §3.1.8, Observation 9; ISO 26262-6
//! Table 1 row 8), following the Google C++ style guide conventions that
//! Apollo adopts: types `UpperCamelCase`, functions `UpperCamelCase` (or
//! `lower_snake` for C-linkage utilities), variables `lower_snake`,
//! member fields `lower_snake_` with trailing underscore, constants
//! `kUpperCamel`, enumerators `kUpperCamel` or `UPPER_SNAKE`, macros
//! `UPPER_SNAKE`. Type, macro and variable naming are the bundled
//! `naming-type`, `naming-macro` and `naming-variable` rules over the
//! `misnamed-*` sites the facts walk records with [`classify`] and
//! [`misnamed_variable`].

/// Case classes a name can fall into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameCase {
    /// `UpperCamelCase`.
    UpperCamel,
    /// `lower_snake_case`.
    LowerSnake,
    /// `lower_snake_case_` with trailing underscore (member fields).
    LowerSnakeTrailing,
    /// `UPPER_SNAKE_CASE`.
    UpperSnake,
    /// `kUpperCamel` constant style.
    KConstant,
    /// Anything else (mixed, leading underscore, ...).
    Other,
}

/// Classifies `name` into its [`NameCase`].
pub fn classify(name: &str) -> NameCase {
    if name.is_empty() {
        return NameCase::Other;
    }
    let has_underscore_inner = name.trim_end_matches('_').contains('_');
    let first = name.chars().next().expect("non-empty");
    let all_upper = name
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
    let all_lower = name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    if name.starts_with('k')
        && name.len() > 1
        && name.chars().nth(1).is_some_and(|c| c.is_ascii_uppercase())
        && !name.contains('_')
    {
        return NameCase::KConstant;
    }
    if all_upper && first.is_ascii_uppercase() {
        return NameCase::UpperSnake;
    }
    if all_lower && first.is_ascii_lowercase() {
        if name.ends_with('_') {
            return NameCase::LowerSnakeTrailing;
        }
        return NameCase::LowerSnake;
    }
    if first.is_ascii_uppercase() && !has_underscore_inner && !name.ends_with('_') {
        return NameCase::UpperCamel;
    }
    NameCase::Other
}

/// Whether a local variable named `name` breaks the convention: locals
/// are `lower_snake_case`, and a `const` one may be a `kConstant`.
pub fn misnamed_variable(name: &str, is_const: bool) -> bool {
    let case = classify(name);
    !(case == NameCase::LowerSnake || (is_const && case == NameCase::KConstant))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_cases() {
        assert_eq!(classify("ObjectTracker"), NameCase::UpperCamel);
        assert_eq!(classify("frame_count"), NameCase::LowerSnake);
        assert_eq!(classify("frame_count_"), NameCase::LowerSnakeTrailing);
        assert_eq!(classify("MAX_SIZE"), NameCase::UpperSnake);
        assert_eq!(classify("kMaxSize"), NameCase::KConstant);
        assert_eq!(classify("mixed_Case"), NameCase::Other);
        assert_eq!(classify(""), NameCase::Other);
    }

    #[test]
    fn bad_variable_flagged() {
        assert!(misnamed_variable("FrameCount", false));
        assert!(!misnamed_variable("frame_count", false));
    }

    #[test]
    fn k_constant_allowed_for_const() {
        assert!(!misnamed_variable("kLimit", true));
        assert!(misnamed_variable("kLimit", false));
    }
}
