// cuda-closed-source-lib: closed-source GPU libraries hamper ISO 26262
// compliance assessment (ISO 26262-6 Table 1 row 2; the paper's
// Observations 11 and 12). A call counts when its callee starts with a
// library's prefix, compared case-insensitively.

struct Handle { int id; };

// Non-compliant: a call into every library (TensorRT under both of its
// prefixes), through a plain call, a member call and a kernel launch.
void infer(Handle& h, float* x, int n) {
  cudnnConvolutionForward(h.id);  // expect: cuda-closed-source-lib
  cublasSgemm(h.id);  // expect: cuda-closed-source-lib
  nvinferCreateRuntime(h.id);  // expect: cuda-closed-source-lib
  TensorRTBuildEngine(h.id);  // expect: cuda-closed-source-lib
  cufftExecC2C(h.id);  // expect: cuda-closed-source-lib
  cusparseScsrmv(h.id);  // expect: cuda-closed-source-lib
  h.cublasDestroy(h.id);  // expect: cuda-closed-source-lib
  cublas_gemm_kernel<<<1, 32>>>(x, n);  // expect: cuda-closed-source-lib
}

// Compliant: open-source code, including a lookalike `my_gemm` and a
// name that only contains a library's name.
void open_source(float* x, int n) {
  my_gemm(x, n);
  gemm_cublas_free(x, n);
}
