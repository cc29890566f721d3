#ifndef GREDVIS_E2E_BENCH_TRACED_LLM_H_
#define GREDVIS_E2E_BENCH_TRACED_LLM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "llm/chat_model.h"

namespace gred::e2e {

/// Which of GRED's prompts a chat call carries, recognized by the same
/// task markers the simulated LLM dispatches on.
enum class LlmTask { kGenerate, kRetune, kDebug, kAnnotate, kOther };
inline constexpr std::size_t kNumLlmTasks = 5;

/// Per-task call totals over some interval.
struct LlmTaskTotals {
  std::uint64_t calls = 0;
  std::int64_t nanos = 0;
  std::uint64_t prompt_bytes = 0;
};
using LlmTotals = std::array<LlmTaskTotals, kNumLlmTasks>;

/// `after - before`, task by task.
LlmTotals Delta(const LlmTotals& after, const LlmTotals& before);

/// Pass-through llm::ChatModel decorator that, while recording, times
/// every call into the wrapped model and attributes it to a pipeline
/// stage. Not recording, it forwards the call and touches nothing else,
/// so the untraced passes pay one relaxed atomic load per LLM call.
class TracedChatModel : public llm::ChatModel {
 public:
  /// `inner` is not owned and must outlive the decorator.
  explicit TracedChatModel(const llm::ChatModel* inner) : inner_(inner) {}

  Result<std::string> Complete(const llm::Prompt& prompt,
                               const llm::ChatOptions& options) const override;

  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }

  LlmTotals totals() const;

 private:
  struct Counters {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::int64_t> nanos{0};
    std::atomic<std::uint64_t> prompt_bytes{0};
  };

  const llm::ChatModel* inner_;
  std::atomic<bool> recording_{false};
  mutable std::array<Counters, kNumLlmTasks> counters_;
};

}  // namespace gred::e2e

#endif  // GREDVIS_E2E_BENCH_TRACED_LLM_H_
