// Command-line plumbing shared by the tools: --key=value arguments into a
// map, and typed lookups with defaults.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace ppc::cli {

using Flags = std::map<std::string, std::string>;

/// Parses the `--key=value` arguments from `argv[first]` on; a bare `--key`
/// reads "1". `--help`, `-h` and any argument not starting with `--` call
/// `usage(argv[0])`. A key missing from `known` exits 2 with "<prog>:
/// unknown flag --key", so a misspelt flag cannot run on defaults.
inline Flags parse_flags(int argc, char** argv, const char* prog,
                         std::span<const std::string_view> known,
                         void (*usage)(const char*), int first = 1) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) != 0) {
      usage(argv[0]);
    }
    const auto eq = arg.find('=');
    const std::string key =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", prog, key.c_str());
      std::exit(2);
    }
    flags[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return flags;
}

inline std::string flag(const Flags& flags, const std::string& key,
                        const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

inline std::uint64_t flag_u64(const Flags& flags, const std::string& key,
                              std::uint64_t fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stoull(it->second);
}

inline double flag_double(const Flags& flags, const std::string& key,
                          double fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stod(it->second);
}

}  // namespace ppc::cli
