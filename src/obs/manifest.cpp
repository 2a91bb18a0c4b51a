#include "obs/manifest.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "util/crc32.hpp"
#include "util/json.hpp"

// Burned in by src/obs/CMakeLists.txt; fall back so a tarball build (no
// .git) still produces a well-formed manifest.
#ifndef MLDIST_GIT_DESCRIBE
#define MLDIST_GIT_DESCRIBE "unknown"
#endif
#ifndef MLDIST_BUILD_FLAGS
#define MLDIST_BUILD_FLAGS "unknown"
#endif

namespace mldist::obs {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string mint_run_id() {
  const auto wall = std::chrono::system_clock::now().time_since_epoch();
  const std::uint64_t ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  return hex64(splitmix64(ns) ^ splitmix64(pid << 32 | pid));
}

std::string read_hostname() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

RunManifest& RunManifest::current() {
  static RunManifest* manifest = [] {
    auto* m = new RunManifest();
    m->run_id = mint_run_id();
    m->git_describe = MLDIST_GIT_DESCRIBE;
    m->hostname = read_hostname();
    m->cores = std::thread::hardware_concurrency();
    m->build_flags = MLDIST_BUILD_FLAGS;
    return m;
  }();
  return *manifest;
}

void RunManifest::set_config(std::string_view config_json,
                             std::uint64_t config_seed) {
  const std::uint32_t crc =
      util::crc32(config_json.data(), config_json.size());
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  config_hash = buf;
  seed = config_seed;
}

std::string RunManifest::to_json() const {
  util::JsonBuilder j;
  j.field("run_id", run_id)
      .field("config_hash", config_hash)
      .field("seed", seed)
      .field("kernel", kernel)
      .field("git", git_describe)
      .field("hostname", hostname)
      .field("cores", static_cast<std::uint64_t>(cores))
      .field("build", build_flags);
  return j.str();
}

RunStatus& RunStatus::global() {
  static RunStatus status;
  return status;
}

void RunStatus::set_detail_provider(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(detail_mutex_);
  detail_ = std::move(provider);
}

std::string RunStatus::to_json() const {
  // Copy the provider under the lock, call it outside: a slow provider (or
  // one taking its own locks) must not stall set_detail_provider.
  std::function<std::string()> provider;
  {
    std::lock_guard<std::mutex> lock(detail_mutex_);
    provider = detail_;
  }
  util::JsonBuilder j;
  j.field("phase", phase()).field("epoch", epoch());
  if (provider) j.raw("detail", provider());
  j.raw("manifest", RunManifest::current().to_json());
  return j.str();
}

}  // namespace mldist::obs
