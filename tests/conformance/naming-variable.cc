// naming-variable: variables shall be lower_snake_case (ISO 26262-6
// Table 1 row 8; the paper's Observation 9), following the Google C++
// style guide. A `const` local may also be a `kConstant`.

// Non-compliant: camel case, upper camel case, upper snake case, and a
// `kConstant` that is not `const`.
int misnamed(int n) {
  int frameCount = n;  // expect: naming-variable
  int FrameTotal = n;  // expect: naming-variable
  int MAX_FRAMES = 8;  // expect: naming-variable
  int kLimit = 4;  // expect: naming-variable
  return frameCount + FrameTotal + MAX_FRAMES + kLimit;
}

// Compliant: lower_snake_case locals and a `const` `kConstant`.
int named(int n) {
  int frame_count = n;
  const int kMaxFrames = 8;
  return frame_count + kMaxFrames;
}

// Out of scope: a global and a parameter are not local variables.
int FrameBudget = 0;
int scaled(int FrameScale) { return FrameScale * FrameBudget; }
