// Retrieval-at-scale sweep: the recall@k-vs-latency frontier of the two
// retrieval backends (the exact backend serving uses — a sealed
// bound-pruned posting-list RetrievalIndex — and IVF multi-probe with
// int8 list scans and an exact re-rank) over a procedurally grown NLQ
// library, embedded at the served dimension (EmbedderOptions{}).
//
// The library is generated with the benchmark's own NLQ machinery
// (dataset::GrowNlqLibrary over the standard 104-database corpus), so
// its phrasing distribution matches what the retrieval layer actually
// serves — nvBench-register and nvBench-Rob-register questions — just
// at 10^5-10^6 scale instead of nvBench's few thousand.
//
// Per sweep point: recall@k against the exact backend's ground truth,
// per-query latency (mean/p50/p95) and speedup over exact. The exact
// backend's hits must equal the dense VectorStore::TopK scan's bit for
// bit on every query (the report's exact_matches_dense); the sweep exits
// 1 if any differs. The IVF frontier is walked by probe count over one
// build (lists are probe-count independent), so the sweep isolates
// search cost from training cost. Build costs (embedding, IVF training)
// are reported separately.
//
// Usage: retrieval_sweep [REPORT_JSON] — with an argument, also writes
// the machine-readable report (scripts/bench_report writes
// BENCH_retrieval.json this way).
//
// Environment (validated via util/env.h; mistyped knobs exit(2)):
//   GRED_SWEEP_LIBRARY   library size            (default 100000)
//   GRED_SWEEP_QUERIES   query count             (default 200)
//   GRED_SWEEP_K         k of recall@k           (default 10)
//   GRED_SWEEP_PROBES    narrow the IVF probe sweep to one count

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "dataset/db_generator.h"
#include "dataset/entity_bank.h"
#include "dataset/library_growth.h"
#include "embed/ann_index.h"
#include "embed/embedder.h"
#include "embed/kernel.h"
#include "embed/retrieval_index.h"
#include "embed/vector_store.h"
#include "nl/lexicon.h"
#include "util/env.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace {

using gred::json::Value;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Nearest-rank percentile of an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::size_t rank =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// One point on the frontier.
struct SweepPoint {
  std::string backend;      // "exact" | "ivf"
  std::size_t probes = 0;   // ivf only
  double recall_at_k = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double speedup_vs_exact = 0.0;
};

/// Fraction of `truth` indexes present in `got` (recall@k for one query).
double Recall(const std::vector<gred::embed::Hit>& truth,
              const std::vector<gred::embed::Hit>& got) {
  if (truth.empty()) return 1.0;
  std::size_t hits = 0;
  for (const gred::embed::Hit& t : truth) {
    for (const gred::embed::Hit& g : got) {
      if (g.index == t.index) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

/// Same indexes, same order, same score bits.
bool SameHits(const std::vector<gred::embed::Hit>& a,
              const std::vector<gred::embed::Hit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gred;

  const char* report_path = bench::ReportPathArg(argc, argv);
  const std::size_t library_size = EnvSizeOrDie("GRED_SWEEP_LIBRARY", 100000);
  const std::size_t num_queries = EnvSizeOrDie("GRED_SWEEP_QUERIES", 200);
  const std::size_t k = EnvSizeOrDie("GRED_SWEEP_K", 10);
  const std::size_t dim = embed::EmbedderOptions{}.dimension;

  std::printf("dot kernel target: %s\n",
              embed::DotTargetName(embed::ActiveDotTarget()));

  // --- Library growth ----------------------------------------------------
  const auto corpus_start = std::chrono::steady_clock::now();
  dataset::DbGeneratorOptions db_options;
  std::vector<dataset::GeneratedDatabase> databases =
      dataset::GenerateDatabases(dataset::EntityBank::Default(), db_options);
  const nl::Lexicon& lexicon = nl::Lexicon::Default();
  std::vector<std::string> library =
      dataset::GrowNlqLibrary(databases, lexicon, library_size);
  dataset::LibraryGrowthOptions query_options;
  query_options.seed = 0xfeedbeef;  // disjoint sample from the library's
  std::vector<std::string> query_texts =
      dataset::GrowNlqLibrary(databases, lexicon, num_queries, query_options);
  const double corpus_s = Seconds(corpus_start);

  // --- Embedding ---------------------------------------------------------
  // One copy of the library, as the embedder's sparse rows. The dense
  // consumers (the oracle and IVF) densify one row at a time as they add
  // it, and the rows are freed after the last Add.
  embed::SemanticHashEmbedder embedder;
  const auto embed_start = std::chrono::steady_clock::now();
  std::vector<embed::SparseRow> rows;
  rows.reserve(library.size());
  for (const std::string& nlq : library) rows.push_back(embedder.Embed(nlq));
  std::vector<embed::SparseRow> queries;
  std::vector<embed::Vector> dense_queries;
  queries.reserve(query_texts.size());
  dense_queries.reserve(query_texts.size());
  for (const std::string& nlq : query_texts) {
    queries.push_back(embedder.Embed(nlq));
    dense_queries.push_back(embed::Densify(queries.back()));
  }
  const double embed_s = Seconds(embed_start);

  // --- Index builds ------------------------------------------------------
  const auto exact_start = std::chrono::steady_clock::now();
  embed::RetrievalIndex exact;  // default config: the exact backend
  for (const embed::SparseRow& row : rows) exact.Add(row);
  exact.Seal();
  const double exact_s = Seconds(exact_start);

  // The dense scan: the exact backend's bit-identity oracle.
  embed::VectorStore dense;
  embed::IvfIndex::Options ivf_options;
  ivf_options.num_clusters = 0;  // auto ~sqrt(n)
  ivf_options.quantized_scan = true;
  embed::IvfIndex ivf(ivf_options);
  for (const embed::SparseRow& row : rows) {
    embed::Vector v = embed::Densify(row);
    dense.Add(v);
    ivf.Add(std::move(v));
  }
  std::vector<embed::SparseRow>().swap(rows);
  const auto ivf_start = std::chrono::steady_clock::now();
  ivf.Build();
  const double ivf_build_s = Seconds(ivf_start);

  // --- Sweep -------------------------------------------------------------
  std::vector<std::vector<embed::Hit>> truth(queries.size());
  std::vector<SweepPoint> frontier;

  auto run_point = [&](const std::string& backend, std::size_t probes,
                       auto&& top_k) {
    SweepPoint point;
    point.backend = backend;
    point.probes = probes;
    std::vector<double> latencies;
    latencies.reserve(queries.size());
    double recall_sum = 0.0;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<embed::Hit> hits = top_k(qi);
      latencies.push_back(Seconds(start) * 1e6);
      if (backend == "exact") {
        truth[qi] = hits;  // ground truth for every later point
      }
      recall_sum += Recall(truth[qi], hits);
    }
    point.recall_at_k =
        queries.empty() ? 1.0
                        : recall_sum / static_cast<double>(queries.size());
    double sum = 0.0;
    for (double us : latencies) sum += us;
    point.mean_us =
        latencies.empty() ? 0.0 : sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    point.p50_us = Percentile(latencies, 0.50);
    point.p95_us = Percentile(latencies, 0.95);
    frontier.push_back(point);
  };

  run_point("exact", 0,
            [&](std::size_t qi) { return exact.TopK(queries[qi], k); });
  std::size_t mismatched = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    if (!SameHits(truth[qi], dense.TopK(dense_queries[qi], k))) ++mismatched;
  }
  if (mismatched > 0) {
    std::fprintf(stderr,
                 "[bench] FAIL: %zu of %zu queries: exact backend hits "
                 "differ from the dense scan\n",
                 mismatched, queries.size());
  }

  std::vector<std::size_t> probe_sweep = {1, 2, 4, 8, 16};
  if (std::getenv("GRED_SWEEP_PROBES") != nullptr) {
    probe_sweep = {EnvSizeOrDie("GRED_SWEEP_PROBES", 1)};
  }
  for (std::size_t probes : probe_sweep) {
    ivf.set_num_probes(probes);
    run_point("ivf", probes, [&](std::size_t qi) {
      return ivf.TopK(dense_queries[qi], k);
    });
  }

  const double exact_mean = frontier.front().mean_us;
  for (SweepPoint& point : frontier) {
    point.speedup_vs_exact =
        point.mean_us > 0.0 ? exact_mean / point.mean_us : 0.0;
  }

  // --- Report ------------------------------------------------------------
  TablePrinter table({"Backend", "Probes", "Recall@k", "Mean (us)",
                      "p50 (us)", "p95 (us)", "Speedup"});
  for (const SweepPoint& point : frontier) {
    table.AddRow({point.backend,
                  point.backend == "ivf" ? std::to_string(point.probes) : "-",
                  strings::Format("%.4f", point.recall_at_k),
                  strings::Format("%.1f", point.mean_us),
                  strings::Format("%.1f", point.p50_us),
                  strings::Format("%.1f", point.p95_us),
                  strings::Format("%.2fx", point.speedup_vs_exact)});
  }

  std::printf("\nRetrieval sweep: library %zu, %zu queries, k=%zu, dim=%zu\n",
              library.size(), queries.size(), k, dim);
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "build: corpus %.2f s, embed %.2f s, exact index %.3f s, "
      "ivf train %.2f s (%zu clusters)\n",
      corpus_s, embed_s, exact_s, ivf_build_s, ivf.num_clusters());

  if (report_path != nullptr) {
    Value report = Value::Object();
    report.Set("schema", Value::Str("gredvis-bench-retrieval/3"));
    report.Set("library_size",
               Value::Int(static_cast<std::int64_t>(library.size())));
    report.Set("queries", Value::Int(static_cast<std::int64_t>(queries.size())));
    report.Set("k", Value::Int(static_cast<std::int64_t>(k)));
    report.Set("dim", Value::Int(static_cast<std::int64_t>(dim)));
    report.Set("dot_target",
               Value::Str(embed::DotTargetName(embed::ActiveDotTarget())));
    Value build = Value::Object();
    build.Set("corpus_s", Value::Number(corpus_s));
    build.Set("embed_s", Value::Number(embed_s));
    build.Set("exact_index_s", Value::Number(exact_s));
    build.Set("ivf_train_s", Value::Number(ivf_build_s));
    build.Set("ivf_clusters",
              Value::Int(static_cast<std::int64_t>(ivf.num_clusters())));
    report.Set("build", std::move(build));
    Value points = Value::Array();
    for (const SweepPoint& point : frontier) {
      Value entry = Value::Object();
      entry.Set("backend", Value::Str(point.backend));
      if (point.backend == "ivf") {
        entry.Set("probes", Value::Int(static_cast<std::int64_t>(point.probes)));
      }
      entry.Set("recall_at_k", Value::Number(point.recall_at_k));
      entry.Set("mean_us", Value::Number(point.mean_us));
      entry.Set("p50_us", Value::Number(point.p50_us));
      entry.Set("p95_us", Value::Number(point.p95_us));
      entry.Set("speedup_vs_exact", Value::Number(point.speedup_vs_exact));
      points.Append(std::move(entry));
    }
    report.Set("frontier", std::move(points));
    report.Set("exact_matches_dense", Value::Bool(mismatched == 0));
    if (!bench::WriteReport(std::move(report), "retrieval_sweep",
                            report_path)) {
      return 1;
    }
  }
  return mismatched == 0 ? 0 : 1;
}
