#include "kernels/norm_act.hpp"

#include "kernels/gemm_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mldist::kernels {

void norm_act_inplace(float* c, std::size_t rows, std::size_t cols,
                      const GemmEpilogue& epilogue) {
  {
    static const obs::MetricId calls =
        obs::MetricsRegistry::global().counter("kernels.norm_act.calls");
    obs::MetricsRegistry::global().add(calls);
  }
  obs::Span span("norm_act", "kernels");
  span.arg("rows", static_cast<std::uint64_t>(rows))
      .arg("cols", static_cast<std::uint64_t>(cols));
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = c + i * cols;
    detail::epilogue_row(row, row, cols, epilogue, 0);
  }
}

}  // namespace mldist::kernels
