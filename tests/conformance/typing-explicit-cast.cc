// typing-explicit-cast: explicit type casts weaken strong typing and
// require review (ISO 26262-6 Table 1 row 3; the paper's Observation 5).
// `reinterpret_cast` and `const_cast` are violations, every other cast
// a warning.

struct Base { int id; };
struct Derived { int id; int extra; };

// Non-compliant: every cast syntax the frontend recognises.
long casts(double d, const int* cp, Base* b) {
  int c = (int)d;  // expect: typing-explicit-cast
  long s = static_cast<long>(d);  // expect: typing-explicit-cast
  long r = reinterpret_cast<long>(cp);  // expect: typing-explicit-cast
  int* w = const_cast<int*>(cp);  // expect: typing-explicit-cast
  Derived* x = dynamic_cast<Derived*>(b);  // expect: typing-explicit-cast
  return c + s + r;
}

// A functional cast, `int(d)`, is a cast too, but the frontend parses
// it as a call, so no finding anchors here.
int functional(double d) {
  int k = int(d);
  return k;
}

// Compliant: no conversion is spelled out.
double widen(int n) {
  double w = n;
  long l = n;
  return w + l;
}
