// Split-regime experiment: the paper's numbers are reported on the
// no-cross-domain split (test databases also appear in training, which
// is what lets memorization-heavy baselines look strong — Section 3).
// This bench contrasts that with a cross-domain split where test
// databases are held out of training entirely: the baselines' clean-set
// accuracy collapses even *without* any robustness perturbation, while
// GRED's retrieval-augmented design degrades far more gently.

#include <cstdio>

#include "bench/common.h"
#include "dataset/benchmark.h"
#include "eval/metrics.h"
#include "gred/gred.h"
#include "llm/sim_llm.h"
#include "models/rgvisnet.h"
#include "models/seq2vis.h"
#include "models/transformer.h"
#include "util/env.h"
#include "util/table_printer.h"

namespace {

using namespace gred;

struct Row {
  std::string model;
  double clean = 0.0;
  double rob_both = 0.0;
};

std::vector<Row> RunRegime(bool cross_domain) {
  dataset::BenchmarkOptions options;
  options.cross_domain = cross_domain;
  options.train_size =
      EnvSizeOrDie("GRED_BENCH_TRAIN_SIZE", options.train_size);
  options.test_size = EnvSizeOrDie("GRED_BENCH_TEST_SIZE", options.test_size);
  std::fprintf(stderr, "[bench] building %s-domain suite...\n",
               cross_domain ? "cross" : "no-cross");
  dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  llm::SimulatedChatModel llm;
  models::Seq2Vis seq2vis(corpus);
  models::TransformerModel transformer(corpus);
  models::RGVisNet rgvisnet(corpus);
  core::Gred gred(corpus, &llm);

  std::vector<Row> rows;
  for (const models::TextToVisModel* model :
       {static_cast<const models::TextToVisModel*>(&seq2vis),
        static_cast<const models::TextToVisModel*>(&transformer),
        static_cast<const models::TextToVisModel*>(&rgvisnet),
        static_cast<const models::TextToVisModel*>(&gred)}) {
    std::fprintf(stderr, "[bench] %s (%s-domain)...\n",
                 model->name().c_str(), cross_domain ? "cross" : "no-cross");
    Row row;
    row.model = model->name();
    row.clean = eval::Evaluate(*model, suite.test_clean, suite.databases,
                               "clean")
                    .counts.OverallAcc();
    row.rob_both = eval::Evaluate(*model, suite.test_both,
                                  suite.databases_rob, "rob_both")
                       .counts.OverallAcc();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int main() {
  std::vector<Row> in_domain = RunRegime(false);
  std::vector<Row> cross = RunRegime(true);
  std::printf(
      "\nSplit-regime experiment: overall accuracy, no-cross-domain "
      "(paper's setting) vs cross-domain (held-out databases)\n");
  gred::TablePrinter table({"Model", "clean (no-cross)", "clean (cross)",
                            "rob_both (no-cross)", "rob_both (cross)"});
  for (std::size_t i = 0; i < in_domain.size(); ++i) {
    table.AddRow({in_domain[i].model,
                  gred::FormatPercent(in_domain[i].clean),
                  gred::FormatPercent(cross[i].clean),
                  gred::FormatPercent(in_domain[i].rob_both),
                  gred::FormatPercent(cross[i].rob_both)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
