// Quickstart: build the benchmark, stand up GRED, translate one natural
// language question into a DVQ, and render the chart.
//
//   $ ./build/examples/quickstart
//
// This walks the whole public API surface: dataset generation, the
// simulated LLM, the three-stage GRED pipeline, execution and rendering.

#include <cstdio>
#include <cstdlib>

#include "dataset/benchmark.h"
#include "gred/gred.h"
#include "llm/recording.h"
#include "llm/sim_llm.h"
#include "viz/chart.h"

int main() {
  using namespace gred;

  // 1. Build a (small) nvBench-Rob benchmark suite: databases, training
  //    pairs and the robustness test sets.
  dataset::BenchmarkOptions options;
  options.train_size = 1000;
  options.test_size = 100;
  if (const char* scaled = std::getenv("GRED_BENCH_TRAIN_SIZE")) {
    options.train_size = static_cast<std::size_t>(std::atoll(scaled));
  }
  if (const char* scaled = std::getenv("GRED_BENCH_TEST_SIZE")) {
    options.test_size = static_cast<std::size_t>(std::atoll(scaled));
  }
  std::printf("Building benchmark suite...\n");
  dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  std::printf("  %zu databases, %zu training pairs, %zu test pairs\n\n",
              suite.databases.size(), suite.train.size(),
              suite.test_clean.size());

  // 2. Stand up GRED: the simulated chat LLM (wrapped in a transcript
  //    recorder) plus the retrieval indexes built in the preparatory
  //    phase.
  llm::SimulatedChatModel sim;
  llm::RecordingChatModel llm(&sim);
  models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  core::Gred gred(corpus, &llm);

  // 3. Translate a paraphrased question against a schema-perturbed
  //    database — the hardest robustness setting.
  const dataset::Example& example = suite.test_both.front();
  const dataset::GeneratedDatabase* db = suite.FindRobDb(example.db_name);
  std::printf("Question : %s\n", example.nlq.c_str());
  std::printf("Database : %s\n\n", example.db_name.c_str());

  const core::Gred::Translation translation = gred.Run(example.nlq, db->data);
  if (!translation.dvq.ok()) {
    std::printf("translation failed: %s\n",
                translation.dvq.status().ToString().c_str());
    return 1;
  }
  const core::Gred::Trace& trace = translation.trace;
  std::printf("Generator : %s\n", trace.dvq_gen.c_str());
  std::printf("Retuner   : %s\n", trace.retune.dvq.c_str());
  std::printf("Debugger  : %s\n\n", trace.debug.dvq.c_str());
  std::printf("Target    : %s\n\n", example.DvqText().c_str());

  // 4. Execute the DVQ and render the chart.
  Result<viz::Chart> chart = viz::BuildChart(translation.dvq.value(), db->data);
  if (!chart.ok()) {
    std::printf("no chart produced: %s\n",
                chart.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", viz::RenderAscii(chart.value()).c_str());
  std::printf("Vega-Lite spec:\n%s\n",
              viz::ToVegaLite(chart.value()).Dump(2).c_str());
  std::printf("(%zu LLM calls; set GRED_DUMP_TRANSCRIPT=1 to print the "
              "prompts)\n",
              llm.call_count());
  if (std::getenv("GRED_DUMP_TRANSCRIPT") != nullptr) {
    std::printf("\n%s", llm.Transcript().c_str());
  }
  return 0;
}
