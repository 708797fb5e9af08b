//! MISRA C:2012-inspired language-subset rules (paper §3.1.2,
//! Observation 2). Rule ids follow the MISRA numbering of the closest
//! corresponding guideline; these are the representative structural rules
//! that a full 143-rule MISRA checker would automate the same way. All
//! of them are bundled `.aq` rules over `site` rows (`goto`, the comma
//! operator, unions, `switch` without `default`, octal constants,
//! unreachable code, side effects after `&&`/`||`, dynamic memory); this
//! module keeps the dynamic-memory API list the facts walk consults.

/// Function names that are dynamic-memory API (MISRA C:2012 rule 21.3
/// bans the stdlib ones; the CUDA ones are their device-side analogues).
pub const DYNAMIC_MEMORY_FNS: &[&str] = &[
    "malloc",
    "calloc",
    "realloc",
    "free",
    "aligned_alloc",
    "strdup",
    "cudaMalloc",
    "cudaMallocManaged",
    "cudaMallocHost",
    "cudaMallocPitch",
    "cudaFree",
    "cudaFreeHost",
];
