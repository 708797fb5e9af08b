// naming-macro: macros shall be UPPER_SNAKE_CASE (ISO 26262-6 Table 1
// row 8). An include guard ending in `_` is exempt.

#ifndef CONFORMANCE_NAMING_MACRO_H_
#define CONFORMANCE_NAMING_MACRO_H_

// Compliant: UPPER_SNAKE_CASE, object-like and function-like.
#define MAX_TRACKS 64
#define SQUARE(x) ((x) * (x))

// Non-compliant: lower case, mixed case and camel case.
#define max_tracks 64  // expect: naming-macro
#define maxTracks 64  // expect: naming-macro
#define square(x) ((x) * (x))  // expect: naming-macro
#define Debug_Level 2  // expect: naming-macro

int tracks() { return MAX_TRACKS; }

#endif
