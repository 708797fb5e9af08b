//! GPU/CUDA-specific rules (paper §3.3 Observations 11–12): the
//! closed-source library dependencies that hamper compliance
//! assessment. All CUDA rules are bundled `.aq` rules over the facts
//! records: the per-function rules of Observation 4 (kernel pointer
//! parameters, unbalanced device allocation, unchecked launches) and
//! `cuda-closed-source-lib`, over the `<library>-call` sites the facts
//! walk records with [`closed_source_call`].

/// Known closed-source GPU libraries (paper Figure 2 taxonomy): a
/// callee-name prefix and the `site` kind a call to that library is
/// recorded as (cuDNN, cuBLAS, TensorRT, cuFFT, cuSPARSE).
pub const CLOSED_SOURCE_LIBS: &[(&str, &str)] = &[
    ("cudnn", "cudnn-call"),
    ("cublas", "cublas-call"),
    ("nvinfer", "tensorrt-call"),
    ("tensorrt", "tensorrt-call"),
    ("cufft", "cufft-call"),
    ("cusparse", "cusparse-call"),
];

/// The site kind of a call to `callee` when it is a closed-source
/// library API: the first entry of [`CLOSED_SOURCE_LIBS`] whose prefix
/// starts the name, compared case-insensitively.
pub fn closed_source_call(callee: &str) -> Option<&'static str> {
    CLOSED_SOURCE_LIBS
        .iter()
        .find(|(prefix, _)| {
            callee
                .get(..prefix.len())
                .is_some_and(|head| head.eq_ignore_ascii_case(prefix))
        })
        .map(|&(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_source_calls_flagged() {
        assert_eq!(closed_source_call("cublasSgemm"), Some("cublas-call"));
        assert_eq!(
            closed_source_call("cudnnConvolutionForward"),
            Some("cudnn-call")
        );
        assert_eq!(closed_source_call("NvInferCreate"), Some("tensorrt-call"));
        assert_eq!(closed_source_call("my_gemm"), None);
        assert_eq!(closed_source_call("cub"), None);
    }
}
