// Non-compliant header.  // expect: style-include-guard
// style-include-guard: headers shall have include guards (ISO 26262-6
// Table 1 row 7; the paper's Observation 8). The finding anchors at the
// start of the file. This header has no guard; a file cannot also be
// compliant, so the guarded and pragma cases are pack-level tests.

int api_version();
