// typing-implicit-conversion: no implicit narrowing type conversions
// (ISO 26262-6 Table 8 row 7; the paper's Observation 5). A local's
// initialiser, or the right-hand side of a plain assignment to a local
// or parameter, narrows when its arithmetic type visibly ranks above
// the target's.

// Non-compliant: narrowing by initialisation and by assignment.
int narrow(double d, float f) {
  int k = d;  // expect: typing-implicit-conversion
  float g = d;  // expect: typing-implicit-conversion
  int m = 1.5;  // expect: typing-implicit-conversion
  short s = 0;
  s = f;  // expect: typing-implicit-conversion
  k = d * 2;  // expect: typing-implicit-conversion
  return k + s + m;
}

// Compliant: widening, an explicit cast (the explicit-cast rule's
// finding, not this one's), a comparison, and literals that fit.
double widen(int n, double d, double e) {
  double w = n;
  int c = (int)d;  // expect: typing-explicit-cast
  bool b = d > e;
  short t = 7;
  float h = 0.5;
  w = c;
  return w + b + t + h;
}
