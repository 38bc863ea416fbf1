#include "api/algorithm.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/timer.h"

namespace fastod {

namespace {

// Budgets past about 31 years are as good as none; the clamp keeps the
// nanosecond count in range.
constexpr double kMaxBudgetSeconds = 1e9;

}  // namespace

Algorithm::Algorithm(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description)) {
  // Registered here so *every* engine — including ones with no native
  // checkpointing — carries the hard-deadline contract: exceeding it
  // turns Execute() into a kDeadlineExceeded error. Engines with
  // checkpoints stop mid-run (StopRequested at cancellation safepoints);
  // the rest are caught at the Execute() boundary.
  options_.AddInt64("timeout-ms", &timeout_ms_,
                    "hard deadline in milliseconds; exceeding it fails "
                    "the run with DeadlineExceeded (0 = none)",
                    0, std::numeric_limits<int64_t>::max());
}

void Algorithm::AddTimeoutOption() {
  options_.AddDouble("timeout", &timeout_s_,
                     "abort after this many seconds (0 = none)", 0.0,
                     std::numeric_limits<double>::max());
}

Status Algorithm::LoadData(Table table) {
  WallTimer timer;
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  if (!encoded.ok()) return encoded.status();
  dataset_.reset();
  relation_ = *std::move(encoded);
  executed_ = false;
  load_seconds_ = timer.ElapsedSeconds();
  return Status::Ok();
}

Status Algorithm::LoadData(EncodedRelation relation) {
  WallTimer timer;
  dataset_.reset();
  relation_ = std::move(relation);
  executed_ = false;
  load_seconds_ = timer.ElapsedSeconds();
  return Status::Ok();
}

Status Algorithm::BindDataset(std::shared_ptr<const LoadedDataset> dataset) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset must be non-null");
  }
  // Near-zero by design: the parse/encode/partition work happened once,
  // in LoadedDataset::Build, and is shared by reference here.
  WallTimer timer;
  relation_.reset();
  dataset_ = std::move(dataset);
  executed_ = false;
  load_seconds_ = timer.ElapsedSeconds();
  return Status::Ok();
}

Status Algorithm::Execute() {
  if (!has_data()) {
    return Status::FailedPrecondition(
        "Execute() requires LoadData() first (algorithm '" + name_ + "')");
  }
  // (Re)arm the control's one deadline for this run at the earlier
  // budget; 0 disarms. The engines stop at it either way; only a hard
  // deadline turns the stop into an error (a tie goes to the hard one).
  const double hard_seconds = timeout_ms_ / 1000.0;
  const bool hard =
      timeout_ms_ > 0 && (timeout_s_ <= 0.0 || hard_seconds <= timeout_s_);
  const double budget =
      std::min(hard ? hard_seconds : timeout_s_, kMaxBudgetSeconds);
  control_->SetDeadlineAfter(std::chrono::ceil<std::chrono::nanoseconds>(
      std::chrono::duration<double>(budget)));
  stats_ = obs::EngineStats();
  WallTimer timer;
  Status status = ExecuteInternal();
  execute_seconds_ = timer.ElapsedSeconds();
  if (status.ok() && hard && control_->DeadlineExceeded()) {
    status = Status::DeadlineExceeded(
        "run exceeded timeout-ms=" + std::to_string(timeout_ms_) +
        " (algorithm '" + name_ + "')");
  }
  executed_ = status.ok();
  return status;
}

std::string Algorithm::ResultText() const {
  return RenderText(BuildReport());
}

std::string Algorithm::ResultJson() const {
  return RenderJson(BuildReport());
}

Report Algorithm::NewReport(ReportKind kind, double seconds,
                            bool timed_out) const {
  Report report;
  report.kind = kind;
  report.algorithm = name_;
  report.rows = relation().NumRows();
  report.schema = &relation().schema();
  report.seconds = seconds;
  report.timed_out = timed_out;
  return report;
}

}  // namespace fastod
