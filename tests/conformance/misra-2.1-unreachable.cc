// misra-2.1-unreachable: no unreachable code (MISRA C:2012 rule 2.1;
// ISO 26262-6 Table 1 row 1). The first statement after an
// unconditional jump is unreachable unless a label, or a `case` or
// `default` label inside a block or a `switch`, makes it a jump target.

// Non-compliant: code after a jump in a nested block, directly in a
// `switch` body, and after a labelled jump.
int in_block(int x) {
  if (x > 0) {
    return 1;
    x = 2;  // expect: misra-2.1-unreachable
  }
  return x;
}

int in_switch(int x) {
  switch (x) {
    case 0:
      return 0;
      x = 1;  // expect: misra-2.1-unreachable
    case 1:
      break;
    default:
      break;
  }
  return x;
}

int labelled(int x) {
  if (x) {
    goto done;
  }
  x = 1;
done:
  return x;
  x = 2;  // expect: misra-2.1-unreachable
}

// Compliant: a `case` label and a label make what follows a jump
// reachable again.
int reachable(int x) {
  switch (x) {
    case 0:
      return 0;
    case 1:
      x = 2;
      break;
    default:
      break;
  }
  if (x) {
    goto next;
  }
  return x;
next:
  x = 3;
  return x;
}
