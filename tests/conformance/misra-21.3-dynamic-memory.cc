// misra-21.3-dynamic-memory: no dynamic objects or variables after
// initialisation (MISRA C:2012 rule 21.3; ISO 26262-6 Table 8 rows 2
// and 6). One finding per allocation or deallocation, whatever its form.

int allocate(int n);

// Non-compliant: the dynamic-memory API, stdlib and CUDA alike.
void api(int n) {
  void* a = malloc(n);  // expect: misra-21.3-dynamic-memory
  void* b = calloc(n, 4);  // expect: misra-21.3-dynamic-memory
  a = realloc(a, 2 * n);  // expect: misra-21.3-dynamic-memory
  free(a);  // expect: misra-21.3-dynamic-memory
  free(b);  // expect: misra-21.3-dynamic-memory
  float* d;
  cudaMalloc(&d, n);  // expect: misra-21.3-dynamic-memory
  cudaFree(d);  // expect: misra-21.3-dynamic-memory
}

// Non-compliant: `new`, `new[]`, `delete` and `delete[]`.
void objects(int n) {
  int* one = new int;  // expect: misra-21.3-dynamic-memory
  float* many = new float[n];  // expect: misra-21.3-dynamic-memory
  delete one;  // expect: misra-21.3-dynamic-memory
  delete[] many;  // expect: misra-21.3-dynamic-memory
}

// Compliant: storage fixed at compile time, and calls that merely look
// like allocation.
int fixed(int n) {
  int buf[16];
  buf[0] = n;
  int slot = allocate(n);
  return buf[0] + slot;
}
