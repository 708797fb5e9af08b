//! CUDA-specific classification of parsed code.
//!
//! Identifies kernels, device functions, CUDA runtime API usage (memory
//! management, transfers, synchronisation), and the GPU-programming
//! patterns the paper's Observations 3/4/11/12 are about: pointer-based
//! dual host/device buffer management and dynamic device allocation.

use crate::ast::{ExprKind, FunctionDef, TranslationUnit};
use crate::source::Span;
use crate::visit::walk_exprs;

/// Category of a recognised CUDA runtime API call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CudaApiKind {
    /// `cudaMalloc`, `cudaMallocManaged`, `cudaMallocHost`, ...
    Alloc,
    /// `cudaFree`, `cudaFreeHost`.
    Free,
    /// `cudaMemcpy`, `cudaMemcpyAsync`, `cudaMemset`.
    Transfer,
    /// `cudaDeviceSynchronize`, `cudaStreamSynchronize`, `__syncthreads`.
    Sync,
    /// `cudaGetLastError`, `cudaPeekAtLastError`.
    ErrorQuery,
    /// Stream/event management.
    Stream,
    /// Anything else starting with `cuda`/`cu`.
    Other,
}

/// Classifies a callee name as a CUDA API call, if it is one.
pub fn classify_api(name: &str) -> Option<CudaApiKind> {
    let kind = match name {
        "cudaMalloc" | "cudaMallocManaged" | "cudaMallocHost" | "cudaMallocPitch"
        | "cudaMalloc3D" | "cuMemAlloc" => CudaApiKind::Alloc,
        "cudaFree" | "cudaFreeHost" | "cuMemFree" => CudaApiKind::Free,
        "cudaMemcpy" | "cudaMemcpyAsync" | "cudaMemcpy2D" | "cudaMemset" | "cudaMemsetAsync" => {
            CudaApiKind::Transfer
        }
        "cudaDeviceSynchronize"
        | "cudaStreamSynchronize"
        | "cudaThreadSynchronize"
        | "__syncthreads"
        | "__syncwarp" => CudaApiKind::Sync,
        "cudaGetLastError" | "cudaPeekAtLastError" | "cudaGetErrorString" => {
            CudaApiKind::ErrorQuery
        }
        "cudaStreamCreate"
        | "cudaStreamDestroy"
        | "cudaEventCreate"
        | "cudaEventDestroy"
        | "cudaEventRecord"
        | "cudaEventElapsedTime" => CudaApiKind::Stream,
        _ if name.starts_with("cuda")
            || name.starts_with("cuDNN")
            || name.starts_with("cublas") =>
        {
            CudaApiKind::Other
        }
        _ => return None,
    };
    Some(kind)
}

/// A recognised CUDA API call site.
#[derive(Debug, Clone)]
pub struct CudaApiCall {
    /// Callee name.
    pub name: String,
    /// API category.
    pub kind: CudaApiKind,
    /// Call site.
    pub span: Span,
}

/// CUDA usage profile for one function.
#[derive(Debug, Clone, Default)]
pub struct CudaProfile {
    /// Recognised CUDA API calls in the body.
    pub api_calls: Vec<CudaApiCall>,
    /// Number of kernel-launch expressions (`<<<...>>>`).
    pub kernel_launches: usize,
    /// Number of pointer-typed parameters.
    pub pointer_params: usize,
    /// Whether the body dereferences or indexes raw pointers.
    pub uses_raw_pointers: bool,
}

impl CudaProfile {
    /// Number of device-allocation calls (`cudaMalloc` family).
    pub fn alloc_calls(&self) -> usize {
        self.api_calls
            .iter()
            .filter(|c| c.kind == CudaApiKind::Alloc)
            .count()
    }

    /// Whether allocation calls outnumber free calls (leak smell).
    pub fn unbalanced_alloc(&self) -> bool {
        let frees = self
            .api_calls
            .iter()
            .filter(|c| c.kind == CudaApiKind::Free)
            .count();
        self.alloc_calls() > frees
    }
}

/// Profiles a single function's CUDA usage.
pub fn profile_function(func: &FunctionDef) -> CudaProfile {
    let mut p = CudaProfile {
        pointer_params: func
            .sig
            .params
            .iter()
            .filter(|pa| pa.ty.is_pointer_like())
            .count(),
        ..CudaProfile::default()
    };
    walk_exprs(func, |e| match &e.kind {
        ExprKind::Call { .. } => {
            if let Some(name) = e.callee_name() {
                if let Some(kind) = classify_api(name) {
                    p.api_calls.push(CudaApiCall {
                        name: name.to_string(),
                        kind,
                        span: e.span,
                    });
                }
            }
        }
        ExprKind::KernelLaunch { .. } => {
            p.kernel_launches += 1;
        }
        ExprKind::Unary {
            op: crate::ast::UnOp::Deref,
            ..
        } => {
            p.uses_raw_pointers = true;
        }
        ExprKind::Index { .. } => {
            p.uses_raw_pointers = true;
        }
        _ => {}
    });
    p
}

/// All CUDA kernels (`__global__`) in a unit.
pub fn kernels(unit: &TranslationUnit) -> Vec<&FunctionDef> {
    unit.functions()
        .into_iter()
        .filter(|f| f.sig.quals.cuda_global)
        .collect()
}

/// All device-side functions (`__global__` or `__device__`) in a unit.
pub fn gpu_functions(unit: &TranslationUnit) -> Vec<&FunctionDef> {
    unit.functions()
        .into_iter()
        .filter(|f| f.sig.quals.is_gpu())
        .collect()
}

/// Whether a unit contains any CUDA construct at all (kernels, launches,
/// or CUDA API calls) — used to classify files as GPU code.
pub fn is_cuda_unit(unit: &TranslationUnit) -> bool {
    if !gpu_functions(unit).is_empty() {
        return true;
    }
    for f in unit.functions() {
        let prof = profile_function(f);
        if prof.kernel_launches > 0 || !prof.api_calls.is_empty() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;
    use crate::source::FileId;

    const SCALE_BIAS: &str = "\
__global__ void scale_bias_kernel(float* output, float* biases, int n, int size) {\n\
    int offset = blockIdx.x * blockDim.x + threadIdx.x;\n\
    int filter = blockIdx.y;\n\
    int batch = blockIdx.z;\n\
    if (offset < size) output[(batch * n + filter) * size + offset] *= biases[filter];\n\
}\n\
void scale_bias_gpu(float* output, float* biases, int batch, int n, int size) {\n\
    float* d_output; float* d_biases;\n\
    cudaMalloc((void**)&d_output, batch * n * size * 4);\n\
    cudaMalloc((void**)&d_biases, n * 4);\n\
    cudaMemcpy(d_output, output, batch * n * size * 4, cudaMemcpyHostToDevice);\n\
    scale_bias_kernel<<<n, 256>>>(d_output, d_biases, n, size);\n\
    cudaDeviceSynchronize();\n\
}\n";

    #[test]
    fn classifies_api_names() {
        assert_eq!(classify_api("cudaMalloc"), Some(CudaApiKind::Alloc));
        assert_eq!(classify_api("cudaFree"), Some(CudaApiKind::Free));
        assert_eq!(classify_api("cudaMemcpy"), Some(CudaApiKind::Transfer));
        assert_eq!(classify_api("__syncthreads"), Some(CudaApiKind::Sync));
        assert_eq!(classify_api("cudaStreamCreate"), Some(CudaApiKind::Stream));
        assert_eq!(classify_api("malloc"), None);
    }

    #[test]
    fn kernel_detection() {
        let p = parse_source(FileId(0), SCALE_BIAS);
        let ks = kernels(&p.unit);
        assert_eq!(ks.len(), 1);
        assert_eq!(ks[0].sig.name, "scale_bias_kernel");
        assert!(is_cuda_unit(&p.unit));
    }

    #[test]
    fn profile_of_figure4_host_wrapper() {
        let p = parse_source(FileId(0), SCALE_BIAS);
        let host = p
            .unit
            .functions()
            .into_iter()
            .find(|f| f.sig.name == "scale_bias_gpu")
            .expect("host wrapper parsed")
            .clone();
        let prof = profile_function(&host);
        assert_eq!(prof.alloc_calls(), 2);
        assert!(prof.unbalanced_alloc(), "paper excerpt never frees");
        assert_eq!(prof.kernel_launches, 1);
        assert_eq!(prof.pointer_params, 2);
    }

    #[test]
    fn kernel_uses_raw_pointers() {
        let p = parse_source(FileId(0), SCALE_BIAS);
        let k = kernels(&p.unit)[0].clone();
        let prof = profile_function(&k);
        assert!(prof.uses_raw_pointers);
        assert_eq!(prof.pointer_params, 2);
    }

    #[test]
    fn cpu_unit_not_cuda() {
        let p = parse_source(FileId(0), "int add(int a, int b) { return a + b; }");
        assert!(!is_cuda_unit(&p.unit));
        assert!(gpu_functions(&p.unit).is_empty());
    }
}
