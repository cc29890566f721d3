#include "traced_llm.h"

#include <chrono>

namespace gred::e2e {

namespace {

/// Classifies a prompt by the task markers of the Appendix C prompts
/// (src/llm/prompt.cc); the simulated LLM dispatches on the same text.
LlmTask Classify(const llm::Prompt& prompt, std::uint64_t* bytes) {
  LlmTask task = LlmTask::kOther;
  *bytes = 0;
  for (const llm::ChatMessage& message : prompt) {
    *bytes += message.content.size();
    if (message.role != llm::ChatMessage::Role::kUser ||
        task != LlmTask::kOther) {
      continue;
    }
    const std::string& text = message.content;
    if (text.find("Generate DVQs based on") != std::string::npos) {
      task = LlmTask::kGenerate;
    } else if (text.find("mimic the style of the Reference DVQs") !=
               std::string::npos) {
      task = LlmTask::kRetune;
    } else if (text.find("replace the column names") != std::string::npos) {
      task = LlmTask::kDebug;
    } else if (text.find("natural language annotations") !=
               std::string::npos) {
      task = LlmTask::kAnnotate;
    }
  }
  return task;
}

}  // namespace

LlmTotals Delta(const LlmTotals& after, const LlmTotals& before) {
  LlmTotals out;
  for (std::size_t i = 0; i < kNumLlmTasks; ++i) {
    out[i].calls = after[i].calls - before[i].calls;
    out[i].nanos = after[i].nanos - before[i].nanos;
    out[i].prompt_bytes = after[i].prompt_bytes - before[i].prompt_bytes;
  }
  return out;
}

Result<std::string> TracedChatModel::Complete(
    const llm::Prompt& prompt, const llm::ChatOptions& options) const {
  if (!recording_.load(std::memory_order_relaxed)) {
    return inner_->Complete(prompt, options);
  }
  const auto start = std::chrono::steady_clock::now();
  Result<std::string> completion = inner_->Complete(prompt, options);
  const std::int64_t nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Classified after the clock stops, so the per-task times hold only
  // the wrapped model's own work.
  std::uint64_t bytes = 0;
  Counters& c = counters_[static_cast<std::size_t>(Classify(prompt, &bytes))];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.nanos.fetch_add(nanos, std::memory_order_relaxed);
  c.prompt_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return completion;
}

LlmTotals TracedChatModel::totals() const {
  LlmTotals out;
  for (std::size_t i = 0; i < kNumLlmTasks; ++i) {
    out[i].calls = counters_[i].calls.load(std::memory_order_relaxed);
    out[i].nanos = counters_[i].nanos.load(std::memory_order_relaxed);
    out[i].prompt_bytes =
        counters_[i].prompt_bytes.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace gred::e2e
