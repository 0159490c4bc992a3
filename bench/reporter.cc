#include "bench/reporter.h"

#include <cinttypes>
#include <utility>

namespace reach {
namespace bench {

namespace {

void PrintRule(std::FILE* out, size_t width) {
  for (size_t i = 0; i < width; ++i) std::fputc('-', out);
  std::fputc('\n', out);
}

}  // namespace

// ---------------------------------------------------------------------------
// TextTableReporter: byte-compatible with the pre-registry harness output.
// ---------------------------------------------------------------------------

void TextTableReporter::BeginExperiment(const ExperimentSpec& spec,
                                        const std::vector<std::string>& methods,
                                        const BenchConfig& config) {
  metric_ = spec.metric;
  open_row_dataset_.clear();
  inventory_rows_ = 0;
  inventory_rule_printed_ = false;

  std::fprintf(out_, "== %s ==\n", spec.title.c_str());
  std::fprintf(out_, "paper_shape: %s\n", spec.shape_note.c_str());
  if (spec.kind == ExperimentKind::kInventory) {
    std::fputc('\n', out_);
    std::fprintf(out_, "%-16s %6s %12s %12s %12s %12s %-14s\n", "dataset",
                 "scale", "paper |V|", "paper |E|", "ours |V|", "ours |E|",
                 "family");
    PrintRule(out_, 92);
    return;
  }

  if (spec.metric == Metric::kQueryMillis) {
    std::fprintf(out_,
                 "metric: total ms per 100,000 queries (measured with %zu)\n",
                 config.num_queries);
  } else if (spec.metric == Metric::kConstructionMillis) {
    std::fprintf(out_, "metric: index construction ms\n");
  } else {
    std::fprintf(out_, "metric: index size in number of stored integers\n");
  }
  std::fprintf(out_, "budget: %.0fs build time%s; '--' = did not finish\n\n",
               config.build_time_budget_seconds,
               config.build_index_budget_integers > 0 ? ", capped index" : "");

  std::fprintf(out_, "%-16s", "dataset");
  for (const std::string& m : methods) std::fprintf(out_, "%12s", m.c_str());
  std::fputc('\n', out_);
  PrintRule(out_, 16 + 12 * methods.size());
}

void TextTableReporter::EndOpenRow() {
  if (!open_row_dataset_.empty()) {
    std::fputc('\n', out_);
    open_row_dataset_.clear();
  }
}

void TextTableReporter::AddRecord(const RunRecord& record) {
  if (record.dataset != open_row_dataset_) {
    EndOpenRow();
    std::fprintf(out_, "%-16s", record.dataset.c_str());
    open_row_dataset_ = record.dataset;
  }
  if (!record.ok) {
    std::fprintf(out_, "%12s", "--");
  } else {
    switch (metric_) {
      case Metric::kConstructionMillis:
      case Metric::kQueryMillis:
        std::fprintf(out_, "%12.1f", record.value);
        break;
      case Metric::kIndexIntegers:
        std::fprintf(out_, "%12" PRIu64,
                     static_cast<uint64_t>(record.value));
        break;
    }
  }
  std::fflush(out_);
}

void TextTableReporter::AddDatasetInfo(const DatasetInfo& info) {
  if (info.large && !inventory_rule_printed_) {
    PrintRule(out_, 92);
    inventory_rule_printed_ = true;
  }
  std::fprintf(out_, "%-16s %6.3f %12zu %12zu %12zu %12zu %-14s\n",
               info.name.c_str(), info.scale, info.paper_vertices,
               info.paper_edges, info.vertices, info.edges,
               info.family.c_str());
  ++inventory_rows_;
}

void TextTableReporter::DatasetError(const std::string& dataset,
                                     const std::string& error) {
  EndOpenRow();
  std::fprintf(out_, "%-16s  <%s>\n", dataset.c_str(), error.c_str());
}

void TextTableReporter::EndExperiment() {
  EndOpenRow();
  if (inventory_rows_ > 0 && !inventory_rule_printed_) {
    // Legacy inventory output always drew the small/large separator, even
    // when filtering left no large rows.
    PrintRule(out_, 92);
    inventory_rule_printed_ = true;
  }
  std::fputc('\n', out_);
  std::fflush(out_);
}

void TextTableReporter::EndRun() { std::fflush(out_); }

// ---------------------------------------------------------------------------
// CsvReporter
// ---------------------------------------------------------------------------

std::string CsvReporter::EscapeField(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvReporter::BeginExperiment(const ExperimentSpec& spec,
                                  const std::vector<std::string>& methods,
                                  const BenchConfig& config) {
  (void)methods;
  (void)config;
  if (buffer_.empty()) {
    buffer_ =
        "experiment,dataset,method,metric,value,budget_exceeded,build_ms,"
        "index_integers,index_bytes,threads,tier,note\n";
  }
  experiment_id_ = spec.id;
  experiment_tier_ = spec.kind == ExperimentKind::kInventory
                         ? ""  // Per-dataset tier instead (AddDatasetInfo).
                         : (spec.large ? "large" : "small");
}

void CsvReporter::Row(const std::string& dataset, const std::string& method,
                      const std::string& metric, const std::string& value,
                      bool budget_exceeded, const RunRecord* stats,
                      const std::string& tier, const std::string& note) {
  buffer_ += EscapeField(experiment_id_);
  buffer_ += ',';
  buffer_ += EscapeField(dataset);
  buffer_ += ',';
  buffer_ += EscapeField(method);
  buffer_ += ',';
  buffer_ += EscapeField(metric);
  buffer_ += ',';
  buffer_ += value;
  buffer_ += ',';
  buffer_ += budget_exceeded ? "true" : "false";
  buffer_ += ',';
  if (stats != nullptr) {
    buffer_ += JsonNumber(stats->build_ms);
    buffer_ += ',';
    buffer_ += std::to_string(stats->index_integers);
    buffer_ += ',';
    buffer_ += std::to_string(stats->index_bytes);
    buffer_ += ',';
    buffer_ += std::to_string(stats->threads);
  } else {
    buffer_ += ",,,";
  }
  buffer_ += ',';
  buffer_ += tier;
  buffer_ += ',';
  buffer_ += EscapeField(note);
  buffer_ += '\n';
}

void CsvReporter::AddRecord(const RunRecord& record) {
  // Budget-exceeded ("--") cells are encoded explicitly: empty value,
  // budget_exceeded=true, with the oracle's reason in `note`.
  Row(record.dataset, record.method, record.metric,
      record.ok ? JsonNumber(record.value) : "", record.budget_exceeded,
      &record, experiment_tier_, record.note);
}

void CsvReporter::AddDatasetInfo(const DatasetInfo& info) {
  const std::string tier = info.large ? "large" : "small";
  Row(info.name, "", "scale", JsonNumber(info.scale), false, nullptr, tier,
      info.family);
  Row(info.name, "", "vertices", std::to_string(info.vertices), false,
      nullptr, tier, info.family);
  Row(info.name, "", "edges", std::to_string(info.edges), false, nullptr,
      tier, info.family);
  Row(info.name, "", "paper_vertices", std::to_string(info.paper_vertices),
      false, nullptr, tier, info.family);
  Row(info.name, "", "paper_edges", std::to_string(info.paper_edges), false,
      nullptr, tier, info.family);
}

void CsvReporter::DatasetError(const std::string& dataset,
                               const std::string& error) {
  Row(dataset, "", "error", "", false, nullptr, experiment_tier_, error);
}

void CsvReporter::EndRun() {
  std::fwrite(buffer_.data(), 1, buffer_.size(), out_);
  std::fflush(out_);
}

// ---------------------------------------------------------------------------
// JsonReporter
// ---------------------------------------------------------------------------

JsonReporter::JsonReporter(std::FILE* out)
    : out_(out), writer_(&buffer_) {
  writer_.BeginObject();
  writer_.KeyUint("schema_version", 2);
  writer_.Key("experiments");
  writer_.BeginArray();
}

void JsonReporter::BeginExperiment(const ExperimentSpec& spec,
                                   const std::vector<std::string>& methods,
                                   const BenchConfig& config) {
  spec_ = spec;
  methods_ = methods;
  config_ = config;
  records_.clear();
  infos_.clear();
  errors_.clear();
}

void JsonReporter::AddRecord(const RunRecord& record) {
  records_.push_back(record);
}

void JsonReporter::AddDatasetInfo(const DatasetInfo& info) {
  infos_.push_back(info);
}

void JsonReporter::DatasetError(const std::string& dataset,
                                const std::string& error) {
  errors_.emplace_back(dataset, error);
}

void JsonReporter::EndExperiment() {
  writer_.BeginObject();
  writer_.KeyString("id", spec_.id);
  writer_.KeyString("title", spec_.title);
  writer_.KeyString("kind", spec_.kind == ExperimentKind::kInventory
                                ? "inventory"
                                : "table");
  if (spec_.kind != ExperimentKind::kInventory) {
    writer_.KeyString("metric", MetricName(spec_.metric));
    writer_.KeyString("workload", WorkloadName(spec_.workload));
    if (spec_.metric == Metric::kQueryMillis) {
      writer_.KeyUint("num_queries", config_.num_queries);
    }
    writer_.KeyDouble("budget_seconds", config_.build_time_budget_seconds);
    writer_.KeyUint("budget_index_integers",
                    config_.build_index_budget_integers);
    writer_.KeyBool("quick", config_.quick);
    writer_.Key("methods");
    writer_.BeginArray();
    for (const std::string& m : methods_) writer_.String(m);
    writer_.EndArray();
  }
  if (!infos_.empty()) {
    writer_.Key("datasets");
    writer_.BeginArray();
    for (const DatasetInfo& info : infos_) {
      writer_.BeginObject();
      writer_.KeyString("dataset", info.name);
      writer_.KeyString("tier", info.large ? "large" : "small");
      writer_.KeyString("family", info.family);
      writer_.KeyDouble("scale", info.scale);
      writer_.KeyUint("paper_vertices", info.paper_vertices);
      writer_.KeyUint("paper_edges", info.paper_edges);
      writer_.KeyUint("vertices", info.vertices);
      writer_.KeyUint("edges", info.edges);
      writer_.EndObject();
    }
    writer_.EndArray();
  }
  if (!errors_.empty()) {
    writer_.Key("dataset_errors");
    writer_.BeginArray();
    for (const auto& [dataset, error] : errors_) {
      writer_.BeginObject();
      writer_.KeyString("dataset", dataset);
      writer_.KeyString("error", error);
      writer_.EndObject();
    }
    writer_.EndArray();
  }
  writer_.Key("records");
  writer_.BeginArray();
  for (const RunRecord& r : records_) {
    writer_.BeginObject();
    writer_.KeyString("dataset", r.dataset);
    writer_.KeyString("method", r.method);
    writer_.KeyString("metric", r.metric);
    writer_.Key("value");
    // Budget-exceeded ("--") cells carry no value: encoded as null plus
    // budget_exceeded=true so a diff can tell "slow" from "did not finish".
    if (r.ok) {
      writer_.Double(r.value);
    } else {
      writer_.Null();
    }
    writer_.KeyDouble("build_ms", r.build_ms);
    writer_.KeyUint("index_integers", r.index_integers);
    writer_.KeyUint("index_bytes", r.index_bytes);
    writer_.KeyUint("threads", static_cast<uint64_t>(r.threads));
    writer_.KeyBool("budget_exceeded", r.budget_exceeded);
    if (!r.note.empty()) writer_.KeyString("note", r.note);
    writer_.EndObject();
  }
  writer_.EndArray();
  writer_.EndObject();
}

void JsonReporter::EndRun() {
  writer_.EndArray();
  writer_.EndObject();
  buffer_.push_back('\n');
  std::fwrite(buffer_.data(), 1, buffer_.size(), out_);
  std::fflush(out_);
}

// ---------------------------------------------------------------------------
// MakeReporter
// ---------------------------------------------------------------------------

namespace {

/// Owns the output FILE* (when not stdout) on behalf of the wrapped
/// reporter; closes it after EndRun flushes.
class FileOwningReporter : public Reporter {
 public:
  FileOwningReporter(std::unique_ptr<Reporter> inner, std::FILE* file)
      : inner_(std::move(inner)), file_(file) {}
  ~FileOwningReporter() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  void BeginExperiment(const ExperimentSpec& spec,
                       const std::vector<std::string>& methods,
                       const BenchConfig& config) override {
    inner_->BeginExperiment(spec, methods, config);
  }
  void AddRecord(const RunRecord& record) override {
    inner_->AddRecord(record);
  }
  void AddDatasetInfo(const DatasetInfo& info) override {
    inner_->AddDatasetInfo(info);
  }
  void DatasetError(const std::string& dataset,
                    const std::string& error) override {
    inner_->DatasetError(dataset, error);
  }
  void EndExperiment() override { inner_->EndExperiment(); }
  void EndRun() override {
    inner_->EndRun();
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }

 private:
  std::unique_ptr<Reporter> inner_;
  std::FILE* file_;
};

}  // namespace

StatusOr<std::unique_ptr<Reporter>> MakeReporter(const BenchConfig& config) {
  std::FILE* out = stdout;
  std::FILE* owned = nullptr;
  if (!config.out_path.empty()) {
    owned = std::fopen(config.out_path.c_str(), "w");
    if (owned == nullptr) {
      return Status::IOError("cannot open --out path '" + config.out_path +
                             "' for writing");
    }
    out = owned;
  }

  std::unique_ptr<Reporter> reporter;
  if (config.format == "csv") {
    reporter = std::make_unique<CsvReporter>(out);
  } else if (config.format == "json") {
    reporter = std::make_unique<JsonReporter>(out);
  } else {
    reporter = std::make_unique<TextTableReporter>(out);
  }
  if (owned != nullptr) {
    reporter = std::make_unique<FileOwningReporter>(std::move(reporter),
                                                    owned);
  }
  return reporter;
}

}  // namespace bench
}  // namespace reach
