#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {

constexpr char kPairsMagic[8] = {'P', 'B', 'P', 'A', 'I', 'R', 'S', '1'};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  // The DL workloads are labeled by HL and the HL workload by DL, so the
  // truth never comes from the oracle under test.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"embed-cold-dl", "cit-Patents", "DL", "HL", true, size_t{1} << 20},
      {"serve-q-dl", "arxiv", "DL", "HL", true, size_t{1} << 18},
      {"serve-batch-reload-hl", "cit-Patents", "HL", "DL", false,
       size_t{1} << 20},
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

bool WritePairs(const std::string& path, const std::vector<Pair>& pairs) {
  std::ofstream out(path, std::ios::binary);
  const uint64_t count = pairs.size();
  out.write(kPairsMagic, sizeof(kPairsMagic));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Pair& pair : pairs) {
    const uint8_t reachable = pair.reachable ? 1 : 0;
    out.write(reinterpret_cast<const char*>(&pair.u), sizeof(pair.u));
    out.write(reinterpret_cast<const char*>(&pair.v), sizeof(pair.v));
    out.write(reinterpret_cast<const char*>(&reachable), sizeof(reachable));
  }
  out.flush();
  return static_cast<bool>(out);
}

bool ReadPairs(const std::string& path, std::vector<Pair>* pairs) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kPairsMagic)] = {};
  uint64_t count = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || std::memcmp(magic, kPairsMagic, sizeof(magic)) != 0 ||
      count > (uint64_t{1} << 32)) {
    return false;
  }
  pairs->resize(count);
  for (Pair& pair : *pairs) {
    uint8_t reachable = 0;
    in.read(reinterpret_cast<char*>(&pair.u), sizeof(pair.u));
    in.read(reinterpret_cast<char*>(&pair.v), sizeof(pair.v));
    in.read(reinterpret_cast<char*>(&reachable), sizeof(reachable));
    pair.reachable = reachable != 0;
  }
  return static_cast<bool>(in);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

}  // namespace perfbench
