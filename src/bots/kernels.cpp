#include "bots/kernel.hpp"

#include <algorithm>
#include <iterator>

namespace taskprof::bots {

// Indexed by SizeClass.
constexpr const char* kSizeNames[] = {"test", "small", "medium"};

const char* size_name(SizeClass size) noexcept {
  return kSizeNames[static_cast<int>(size)];
}

std::optional<SizeClass> parse_size(std::string_view text) noexcept {
  const auto* found = std::find(std::begin(kSizeNames), std::end(kSizeNames),
                                text);
  if (found == std::end(kSizeNames)) return std::nullopt;
  return static_cast<SizeClass>(found - std::begin(kSizeNames));
}

// One factory per kernel translation unit.
std::unique_ptr<Kernel> make_alignment_kernel();
std::unique_ptr<Kernel> make_fft_kernel();
std::unique_ptr<Kernel> make_fib_kernel();
std::unique_ptr<Kernel> make_floorplan_kernel();
std::unique_ptr<Kernel> make_health_kernel();
std::unique_ptr<Kernel> make_nqueens_kernel();
std::unique_ptr<Kernel> make_sort_kernel();
std::unique_ptr<Kernel> make_sparselu_kernel();
std::unique_ptr<Kernel> make_strassen_kernel();

std::vector<std::unique_ptr<Kernel>> make_all_kernels() {
  std::vector<std::unique_ptr<Kernel>> kernels;
  kernels.push_back(make_alignment_kernel());
  kernels.push_back(make_fft_kernel());
  kernels.push_back(make_fib_kernel());
  kernels.push_back(make_floorplan_kernel());
  kernels.push_back(make_health_kernel());
  kernels.push_back(make_nqueens_kernel());
  kernels.push_back(make_sort_kernel());
  kernels.push_back(make_sparselu_kernel());
  kernels.push_back(make_strassen_kernel());
  return kernels;
}

std::unique_ptr<Kernel> make_kernel(std::string_view name) {
  auto all = make_all_kernels();
  for (auto& kernel : all) {
    if (kernel->name() == name) return std::move(kernel);
  }
  return nullptr;
}

const std::vector<std::string>& nocutoff_study_kernels() {
  static const std::vector<std::string> kernels = {
      "fib", "floorplan", "health", "nqueens", "strassen"};
  return kernels;
}

}  // namespace taskprof::bots
