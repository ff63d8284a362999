// Built-in backend registrations. Like hybrid.cpp, this file sits above
// the cpu/ and pim/ layers: it is where the concrete backends meet the
// registry, so nothing else in align/ needs to know they exist.
#include <memory>

#include "align/hybrid.hpp"
#include "align/registry.hpp"
#include "cpu/cpu_batch.hpp"
#include "pim/host.hpp"

namespace pimwfa::align::detail {

void register_builtin_backends(BackendRegistry& registry) {
  registry.add("cpu",
               "multi-threaded host WFA, roofline-projected onto the "
               "paper's 56-thread Xeon",
               [](const BatchOptions& options) {
                 return std::make_unique<cpu::CpuBatchAligner>(options);
               });
  registry.add("pim",
               "scatter / kernel / gather on the simulated UPMEM system",
               [](const BatchOptions& options) {
                 return std::make_unique<pim::PimBatchAligner>(options);
               });
  registry.add("hybrid",
               "throughput-proportional CPU+PIM split, merged in input "
               "order",
               [](const BatchOptions& options) {
                 return std::make_unique<HybridBatchAligner>(options);
               });
}

}  // namespace pimwfa::align::detail
