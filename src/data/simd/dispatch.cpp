#include "data/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "support/panic.hpp"

// DKNN_SIMD_X86 is defined (by CMake, for the dknn target only) exactly
// when kernels_avx2.cpp / kernels_avx512.cpp are part of the build, so the
// references below always link.  __builtin_cpu_supports additionally
// verifies the *running* CPU and the OS-enabled XSAVE state, which is what
// makes a DKNN_NATIVE_ARCH=OFF binary safe to migrate across machines.

namespace dknn::simd {
namespace {

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return true;
#if defined(DKNN_SIMD_X86)
    // Both vector TUs execute FMA in their lower-bound op, so both need the
    // fma bit too (AVX-512F hardware has it; the check keeps the rule one).
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
    case Isa::Avx512:
      return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("fma") != 0;
#else
    case Isa::Avx2:
    case Isa::Avx512: return false;
#endif
  }
  return false;
}

/// DKNN_FORCE_ISA, decoded once: -1 = unset, else the Isa value.  A bad or
/// unsupported value panics — a forced-ISA run that silently fell back
/// would invalidate whatever the caller was measuring or testing.
int env_override() {
  static const int value = [] {
    const char* env = std::getenv("DKNN_FORCE_ISA");
    if (env == nullptr || *env == '\0') return -1;
    const std::optional<Isa> isa = parse_isa(env);
    if (!isa.has_value()) {
      panic(std::string("DKNN_FORCE_ISA=") + env + " — want scalar | avx2 | avx512");
    }
    if (!isa_supported(*isa)) {
      panic(std::string("DKNN_FORCE_ISA=") + env + " — not supported by this build/CPU");
    }
    return static_cast<int>(*isa);
  }();
  return value;
}

/// force_isa() state: -1 = no programmatic force.
std::atomic<int> g_forced{-1};

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "unknown";
}

std::optional<Isa> parse_isa(std::string_view name) {
  if (name == "scalar") return Isa::Scalar;
  if (name == "avx2") return Isa::Avx2;
  if (name == "avx512") return Isa::Avx512;
  return std::nullopt;
}

bool isa_supported(Isa isa) { return cpu_supports(isa); }

Isa best_supported_isa() {
  static const Isa best = [] {
    if (cpu_supports(Isa::Avx512)) return Isa::Avx512;
    if (cpu_supports(Isa::Avx2)) return Isa::Avx2;
    return Isa::Scalar;
  }();
  return best;
}

void force_isa(std::optional<Isa> isa) {
  if (isa.has_value()) {
    DKNN_REQUIRE(isa_supported(*isa), "force_isa: ISA not supported by this build/CPU");
    g_forced.store(static_cast<int>(*isa), std::memory_order_release);
  } else {
    g_forced.store(-1, std::memory_order_release);
  }
}

Isa active_isa() {
  const int forced = g_forced.load(std::memory_order_acquire);
  if (forced >= 0) return static_cast<Isa>(forced);
  const int env = env_override();
  if (env >= 0) return static_cast<Isa>(env);
  return best_supported_isa();
}

const KernelOps& kernel_ops() {
  switch (active_isa()) {
    case Isa::Scalar: break;
#if defined(DKNN_SIMD_X86)
    case Isa::Avx2: return avx2_ops();
    case Isa::Avx512: return avx512_ops();
#else
    case Isa::Avx2:
    case Isa::Avx512: break;  // unreachable: never supported, never forced
#endif
  }
  return scalar_ops();
}

}  // namespace dknn::simd
