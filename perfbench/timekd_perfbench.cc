// End-to-end benchmark of the TimeKD pipeline (see README.md).
//
// One run generates an ETTh1-style series from --seed and, four times over,
// builds core::TimeKd (frozen calibrated LM with pretraining), warms the
// prompt-embedding cache and fits teacher + student; batch-1 forecasts are
// timed in a closed loop in slices between those phases. It checks every
// output, counts failed operations against attempted ones, and prints one
// JSON result as the last line of stdout:
//   --trace 0: the end-to-end metrics, measured with no spans recorded;
//   --trace 1: the per-layer metrics from a traced pass plus library
//              counters, and the tracing overhead against an untraced pass.
//
//   timekd_perfbench --workload fit-gpt --seed 1 --seconds 30 --trace 0

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/timekd.h"
#include "data/datasets.h"
#include "data/time_series.h"
#include "data/window_dataset.h"
#include "llm/language_model.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "span_recorder.h"
#include "text/prompt.h"

extern char** environ;

namespace {

using namespace timekd;
using perfbench::NowMicros;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using tensor::Tensor;

constexpr int64_t kVariables = 7;     // ETTh1
constexpr int64_t kFreqMinutes = 60;  // hourly
constexpr int64_t kInputLen = 96;
constexpr int64_t kHorizon = 24;
constexpr int64_t kBatchSize = 8;
// Windows re-encoded after Fit and compared with their cache entries.
constexpr int64_t kRecheckWindows = 4;
// Test windows each repetition forecasts to show it reached the same
// student as the first.
constexpr int64_t kWarmupWindows = 256;
// Timed forecasts of the traced pass: a fixed count, so the library
// counters read over the pass repeat exactly for a seed.
constexpr int64_t kTracedForecasts = 5000;
// Kernel tolerance documented in docs/performance.md.
constexpr double kAbsTol = 1e-5;
constexpr double kRelTol = 1e-5;

/// One benchmark workload. Series lengths are per split, so the number of
/// training windows (= CLM encodes) is train_len - input - horizon + 1.
struct Workload {
  const char* name;
  llm::LlmKind kind;
  int prompt_stride;
  int64_t d_model;
  int64_t ffn_hidden;
  int64_t train_len;
  int64_t val_len;
  int64_t test_len;
  int64_t teacher_epochs;
  int64_t student_epochs;
  int threads;
  int reps;                // set-up/cache/Fit repetitions per untraced run
  int64_t min_forecasts;   // timed forecasts per latency slice, at least
};

// clang-format off
const Workload kWorkloads[] = {
  // name           backbone               stride  dm   ffn  train val  test  T   S  thr reps min
  {"fit-gpt",      llm::LlmKind::kGptMini,  4,     16,  32,  200, 150, 4000, 6,  3,  1,  4,  300},
  {"distill-bert", llm::LlmKind::kBertMini, 16,    64, 128,  240, 150, 4000, 10, 5,  1,  4,  300},
  {"fit-gpt-t2",   llm::LlmKind::kGptMini,  4,     16,  32,  200, 150, 4000, 6,  3,  2,  4,  300},
  // Toy size for perfbench/selftest.py; not a benchmark workload.
  {"toy",          llm::LlmKind::kGptMini,  16,    16,  32,  180, 125,  300, 6,  4,  1,  1,  100},
};
// clang-format on

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  bool inject_nonfinite = false;
};

/// Attempted / failed operation tally with the first few failure reasons.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> reasons;

  void Attempt(int64_t n = 1) { attempted += n; }
  void Fail(const std::string& reason, int64_t n = 1) {
    failed += n;
    if (reasons.size() < 8) reasons.push_back(reason);
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

/// Process peak resident set (VmHWM) in MB; NaN when /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

core::TimeKdConfig MakeConfig(const Workload& w) {
  core::TimeKdConfig c;
  c.num_variables = kVariables;
  c.input_len = kInputLen;
  c.horizon = kHorizon;
  c.freq_minutes = kFreqMinutes;
  c.d_model = w.d_model;
  c.ffn_hidden = w.ffn_hidden;
  c.num_heads = 4;
  c.encoder_layers = 2;
  c.llm.kind = w.kind;
  c.llm.d_model = 32;
  c.llm.num_layers = 2;
  c.llm.ffn_hidden = 64;
  c.llm.calibration_delta = 5.0f;
  c.llm_pretrain_sequences = 64;
  c.prompt.stride = w.prompt_stride;
  return c;
}

/// Standardized train/val/test windows of one generated series.
struct Splits {
  data::WindowDataset train;
  data::WindowDataset val;
  data::WindowDataset test;
};

std::unique_ptr<Splits> PrepareData(const Workload& w, uint64_t seed) {
  // One ETTh1-style series with fixed channel structure (factor loadings,
  // offsets, scales), as a real dataset has; the seed picks which of
  // kSegments disjoint stretches of it a run sees, so every input changes
  // with the seed while the forecasting difficulty stays that of one
  // dataset. The full series is always generated, so set-up work does not
  // depend on the seed.
  constexpr int64_t kSegments = 32;
  const int64_t length = w.train_len + w.val_len + w.test_len;
  data::DatasetSpec spec =
      data::DefaultSpec(data::DatasetId::kEtth1, kSegments * length);
  const int64_t offset = static_cast<int64_t>(seed % kSegments) * length;
  const data::TimeSeries series =
      data::MakeDataset(spec).RowRange(offset, offset + length);
  // +0.5 keeps the split's floor() on the intended step counts.
  const double total = static_cast<double>(length);
  const data::DataSplits splits = data::ChronologicalSplit(
      series, {(static_cast<double>(w.train_len) + 0.5) / total,
               (static_cast<double>(w.val_len) + 0.5) / total});
  data::StandardScaler scaler;
  scaler.Fit(splits.train);
  return std::make_unique<Splits>(
      Splits{data::WindowDataset(scaler.Transform(splits.train), kInputLen,
                                 kHorizon),
             data::WindowDataset(scaler.Transform(splits.val), kInputLen,
                                 kHorizon),
             data::WindowDataset(scaler.Transform(splits.test), kInputLen,
                                 kHorizon)});
}

/// Wall-clock timestamps of the training-loop callbacks. Gaps between
/// them give the phases Fit does not report itself (teacher targets,
/// per-epoch validation).
class FitTimeline : public obs::TrainObserver {
 public:
  struct Event {
    bool teacher = false;
    bool epoch = false;
    double t_us = 0.0;
    double seconds = 0.0;
  };

  void OnStep(const obs::StepRecord& r) override {
    events_.push_back({r.phase == "teacher", false, NowMicros(), r.seconds});
  }
  void OnEpoch(const obs::EpochRecord& r) override {
    events_.push_back({r.phase == "teacher", true, NowMicros(), r.seconds});
  }
  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

/// Per-phase figures derived from a FitTimeline.
struct FitBreakdown {
  int64_t teacher_steps = 0;
  int64_t student_steps = 0;
  double teacher_step_p50_us = 0.0;
  double student_step_p50_us = 0.0;
  double teacher_phase_s = 0.0;
  double student_phase_s = 0.0;
  double targets_s = 0.0;
  double validate_s = 0.0;
};

/// Turns the callback timeline into spans under `fit_span` and phase sums.
FitBreakdown ReconstructFit(const FitTimeline& timeline, int fit_span,
                            SpanRecorder* rec) {
  FitBreakdown b;
  std::vector<double> teacher_steps_us;
  std::vector<double> student_steps_us;
  double teacher_start = -1.0;
  double teacher_end = -1.0;
  double student_start = -1.0;
  double student_end = -1.0;
  double last_student_step = -1.0;
  std::vector<std::pair<double, double>> validations;
  for (const FitTimeline::Event& e : timeline.events()) {
    const double start = e.t_us - e.seconds * 1e6;
    if (e.teacher) {
      if (e.epoch) {
        teacher_end = e.t_us;
      } else {
        if (teacher_start < 0) teacher_start = start;
        teacher_steps_us.push_back(e.seconds * 1e6);
      }
    } else if (e.epoch) {
      student_end = e.t_us;
      if (last_student_step >= 0) {
        validations.emplace_back(last_student_step, e.t_us);
      }
    } else {
      if (student_start < 0) student_start = start;
      student_steps_us.push_back(e.seconds * 1e6);
      last_student_step = e.t_us;
    }
  }
  b.teacher_steps = static_cast<int64_t>(teacher_steps_us.size());
  b.student_steps = static_cast<int64_t>(student_steps_us.size());
  b.teacher_step_p50_us = Median(teacher_steps_us);
  b.student_step_p50_us = Median(student_steps_us);
  if (teacher_start >= 0 && teacher_end >= teacher_start) {
    b.teacher_phase_s = (teacher_end - teacher_start) * 1e-6;
  }
  if (student_start >= 0 && student_end >= student_start) {
    b.student_phase_s = (student_end - student_start) * 1e-6;
  }
  if (teacher_end >= 0 && student_start >= teacher_end) {
    b.targets_s = (student_start - teacher_end) * 1e-6;
  }
  for (const auto& [from, to] : validations) b.validate_s += (to - from) * 1e-6;

  if (rec == nullptr) return b;
  int teacher_span = -1;
  int student_span = -1;
  if (b.teacher_phase_s > 0) {
    teacher_span =
        rec->Add("core.teacher.phase", teacher_start, teacher_end, fit_span);
  }
  if (b.targets_s > 0) {
    rec->Add("core.fit.targets", teacher_end, student_start, fit_span);
  }
  if (b.student_phase_s > 0) {
    student_span =
        rec->Add("core.student.phase", student_start, student_end, fit_span);
  }
  for (const FitTimeline::Event& e : timeline.events()) {
    if (e.epoch) continue;
    const int parent = e.teacher ? teacher_span : student_span;
    if (parent < 0) continue;
    rec->Add(e.teacher ? "core.teacher.step" : "core.student.step",
             e.t_us - e.seconds * 1e6, e.t_us, parent);
  }
  if (student_span >= 0) {
    for (const auto& [from, to] : validations) {
      rec->Add("core.fit.validate", from, to, student_span);
    }
  }
  return b;
}

/// Student error over test windows, with the zero forecast and each
/// window's per-variable history mean as baselines on the same windows.
struct Quality {
  double mse = std::numeric_limits<double>::quiet_NaN();
  double mae = std::numeric_limits<double>::quiet_NaN();
  double zero_mse = std::numeric_limits<double>::quiet_NaN();
  double mean_mse = std::numeric_limits<double>::quiet_NaN();
  double warmup_se = 0.0;  // squared error over the first kWarmupWindows
};

/// Forecast latency percentiles of one timed slice.
struct LatencySlice {
  double p50_us = 0.0;
  double p95_us = 0.0;
};

/// Everything one pass of the pipeline measured.
struct PassResult {
  std::unique_ptr<Splits> data;          // of the first repetition
  std::unique_ptr<core::TimeKd> model;   // of the first repetition
  std::vector<double> setup_s;           // one per repetition
  std::vector<double> cache_build_s;
  std::vector<double> train_s;
  std::vector<double> encode_us;  // per EncodeSample (traced pass only)
  double cache_put_s = 0.0;       // traced pass only
  FitBreakdown fit;               // traced pass only
  std::vector<double> infer_us;  // every timed forecast
  std::vector<LatencySlice> slices;
  Quality quality;                // of the last repetition

  /// Set-up + cache build + Fit of the first repetition.
  double PipelineSeconds() const {
    return setup_s.front() + cache_build_s.front() + train_s.front();
  }
};

bool CloseWithinTolerance(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double x = a.data()[i];
    const double y = b.data()[i];
    if (!(std::fabs(x - y) <= kAbsTol + kRelTol * std::fabs(y))) return false;
  }
  return true;
}

/// Checks the embedding cache after Fit: one finite [N, D] entry per
/// training window, and a fixed handful of windows re-encoded through
/// clm().EncodeSample match their entries.
void CheckCache(core::TimeKd& model, const data::WindowDataset& train,
                bool recheck, Tally* tally) {
  const int64_t windows = train.NumSamples();
  if (model.cache().size() != windows) {
    tally->Fail("cache holds " + std::to_string(model.cache().size()) +
                    " entries for " + std::to_string(windows) + " windows",
                std::max<int64_t>(1, std::abs(model.cache().size() - windows)));
  }
  const int64_t d_llm = model.clm().d_llm();
  for (int64_t i = 0; i < windows; ++i) {
    if (!model.cache().Contains(i)) {
      tally->Fail("no cache entry for window " + std::to_string(i));
      continue;
    }
    const core::PromptEmbeddings e = model.cache().Get(i);
    const std::vector<int64_t> want = {kVariables, d_llm};
    if (e.gt.shape() != want || e.hd.shape() != want || !AllFinite(e.gt) ||
        !AllFinite(e.hd)) {
      tally->Fail("bad cache entry for window " + std::to_string(i));
    }
  }
  for (int64_t k = 0; recheck && k < kRecheckWindows && windows > 0; ++k) {
    const int64_t i = k * (windows - 1) / std::max<int64_t>(1, kRecheckWindows - 1);
    tally->Attempt();
    if (!model.cache().Contains(i)) continue;  // already counted above
    const core::PromptEmbeddings fresh = model.clm().EncodeSample(train, i);
    const core::PromptEmbeddings cached = model.cache().Get(i);
    if (!CloseWithinTolerance(fresh.gt, cached.gt) ||
        !CloseWithinTolerance(fresh.hd, cached.hd)) {
      tally->Fail("re-encoded window " + std::to_string(i) +
                  " differs from its cache entry");
    }
  }
}

/// Checks one forecast: finite, shape [1, horizon, N].
bool ForecastOk(const Tensor& pred) {
  const std::vector<int64_t> want = {1, kHorizon, kVariables};
  return pred.defined() && pred.shape() == want && AllFinite(pred);
}

/// Forecasts the first `windows` test windows (one caller, batch 1),
/// checking each forecast, and scores them.
Quality EvaluateQuality(const core::TimeKd& model,
                        const data::WindowDataset& test, int64_t windows,
                        Tally* tally) {
  Quality q;
  double se = 0.0;
  double ae = 0.0;
  double zero_se = 0.0;
  double mean_se = 0.0;
  int64_t count = 0;
  bool ok = windows > 0;
  for (int64_t i = 0; i < windows; ++i) {
    const data::ForecastBatch b = test.GetBatch({i});
    tally->Attempt();
    const Tensor pred = model.Predict(b.x);
    if (!ForecastOk(pred)) {
      tally->Fail("non-finite or misshaped forecast");
      ok = false;
      continue;
    }
    std::vector<double> hist_mean(static_cast<size_t>(kVariables), 0.0);
    for (int64_t j = 0; j < b.x.numel(); ++j) {
      hist_mean[static_cast<size_t>(j % kVariables)] +=
          b.x.data()[j] / static_cast<double>(kInputLen);
    }
    for (int64_t j = 0; j < pred.numel(); ++j) {
      const double y = b.y.data()[j];
      const double d = static_cast<double>(pred.data()[j]) - y;
      const double m = hist_mean[static_cast<size_t>(j % kVariables)] - y;
      se += d * d;
      ae += std::fabs(d);
      zero_se += y * y;
      mean_se += m * m;
    }
    count += pred.numel();
    if (i + 1 == kWarmupWindows) q.warmup_se = se;
  }
  if (ok) {
    const double n = static_cast<double>(count);
    q.mse = se / n;
    q.mae = ae / n;
    q.zero_mse = zero_se / n;
    q.mean_mse = mean_se / n;
  }
  return q;
}

/// Timed closed loop: one caller forecasts one test window at a time for
/// `seconds` (at least `min_count` times) after a short untimed warm-up,
/// since the phase before it evicted the student from the caches. Appends
/// every latency to `latencies_us` and the slice's percentiles to `slices`.
void TimeSlice(const core::TimeKd& model, const data::WindowDataset& test,
               double seconds, int64_t min_count, bool inject_nonfinite,
               std::vector<double>* latencies_us,
               std::vector<LatencySlice>* slices, Tally* tally) {
  constexpr int64_t kWarmup = 32;
  const int64_t windows = test.NumSamples();
  std::vector<double> mine;
  double until_us = 0.0;
  for (int64_t n = 0; windows > 0; ++n) {
    if (n == kWarmup) until_us = NowMicros() + seconds * 1e6;
    if (n >= kWarmup + min_count && NowMicros() >= until_us) break;
    const data::ForecastBatch b = test.GetBatch({n % windows});
    tally->Attempt();
    const double t0 = NowMicros();
    Tensor pred = model.Predict(b.x);
    const double t1 = NowMicros();
    if (n >= kWarmup) mine.push_back(t1 - t0);
    if (inject_nonfinite && n == 0 && pred.numel() > 0) {
      pred.data()[0] = std::numeric_limits<float>::quiet_NaN();
    }
    if (!ForecastOk(pred)) tally->Fail("non-finite or misshaped forecast");
  }
  if (mine.empty()) return;
  slices->push_back({Percentile(mine, 0.50), Percentile(mine, 0.95)});
  latencies_us->insert(latencies_us->end(), mine.begin(), mine.end());
}

/// Runs the pipeline `reps` times, each on a fresh model: set-up, cache
/// build, Fit, then forecasts of the first test windows (of every test
/// window on the last repetition, for the quality metrics). Forecast
/// latency is timed in slices with the first repetition's student: after
/// its Fit, then after every later set-up, cache build and Fit, so the
/// slices spread over the run and a slow stretch of the machine lands on
/// few of them. The slices share a fifth of `seconds`, with at least
/// `min_forecasts` each (exactly that many when `seconds` is 0). With a
/// recorder, the cache build is the per-window EncodeSample + Put loop
/// WarmCache runs, so each call gets a span.
PassResult RunPipeline(const Workload& w, const Options& opt, int reps,
                       double seconds, int64_t min_forecasts,
                       SpanRecorder* rec, Tally* tally) {
  constexpr double kInferShare = 0.2;
  PassResult r;
  const core::TimeKdConfig config = MakeConfig(w);
  core::TrainConfig tc;
  tc.epochs = w.student_epochs;
  tc.teacher_epochs = w.teacher_epochs;
  tc.batch_size = kBatchSize;
  tc.lr = 2e-3;
  tc.seed = opt.seed * 2654435761u + 17;  // shuffle order
  const int slices = 1 + 3 * (reps - 1);
  auto serve = [&]() {
    if (r.model == nullptr) return;
    ScopedSpan span(rec, "infer");
    TimeSlice(*r.model, r.data->test, seconds * kInferShare / slices,
              min_forecasts, opt.inject_nonfinite && r.slices.empty(),
              &r.infer_us, &r.slices, tally);
  };
  for (int rep = 0; rep < reps; ++rep) {
    std::unique_ptr<Splits> data;
    std::unique_ptr<core::TimeKd> model_ptr;
    {
      ScopedSpan setup_span(rec, "setup");
      const double t0 = NowMicros();
      {
        ScopedSpan span(rec, "data.prepare");
        data = PrepareData(w, opt.seed);
      }
      {
        ScopedSpan span(rec, "core.init");
        model_ptr = std::make_unique<core::TimeKd>(config);
      }
      r.setup_s.push_back((NowMicros() - t0) * 1e-6);
    }
    serve();
    core::TimeKd& model = *model_ptr;
    const data::WindowDataset& train = data->train;

    const int64_t windows = train.NumSamples();
    tally->Attempt(windows);
    {
      ScopedSpan span(rec, "cache_build");
      const double t0 = NowMicros();
      if (rec == nullptr) {
        model.WarmCache(train);
      } else {
        for (int64_t i = 0; i < windows; ++i) {
          const int encode = rec->Open("core.clm.encode_sample");
          const double e0 = NowMicros();
          core::PromptEmbeddings e = model.clm().EncodeSample(train, i);
          r.encode_us.push_back(NowMicros() - e0);
          rec->Close(encode);
          const int put = rec->Open("core.cache.put");
          const double p0 = NowMicros();
          model.cache().Put(i, e);
          r.cache_put_s += (NowMicros() - p0) * 1e-6;
          rec->Close(put);
        }
      }
      r.cache_build_s.push_back((NowMicros() - t0) * 1e-6);
    }
    serve();

    const int64_t batches = (windows + kBatchSize - 1) / kBatchSize;
    const int64_t expected_steps =
        batches * (w.teacher_epochs + w.student_epochs);
    tally->Attempt(expected_steps);
    FitTimeline timeline;
    tc.observer = rec != nullptr ? &timeline : nullptr;
    const int fit_span = rec != nullptr ? rec->Open("train") : -1;
    const double t0 = NowMicros();
    const core::FitStats stats = model.Fit(train, &data->val, tc);
    r.train_s.push_back((NowMicros() - t0) * 1e-6);
    if (rec != nullptr) {
      rec->Close(fit_span);
      r.fit = ReconstructFit(timeline, fit_span, rec);
    }
    if (stats.steps != expected_steps) {
      tally->Fail("Fit ran " + std::to_string(stats.steps) + " of " +
                      std::to_string(expected_steps) + " steps",
                  std::max<int64_t>(1, expected_steps - stats.steps));
    }
    // A failed verdict means a fatal anomaly (non-finite loss, exploding
    // gradients). Warnings (a loss spike once training has converged) are
    // advisory; they are counted in obs.health_anomalies.
    if (stats.health_verdict == obs::HealthVerdict::kFailed ||
        stats.stopped_early) {
      tally->Fail(std::string("Fit health verdict ") +
                  obs::HealthVerdictName(stats.health_verdict) +
                  (stats.stopped_early ? ", stopped early" : ""));
    }
    CheckCache(model, train, /*recheck=*/rep + 1 == reps, tally);

    // Every repetition sees the same inputs, so it must reach the same
    // student: its warm-up forecasts must match the first repetition's.
    const data::WindowDataset& test = data->test;
    const bool last = rep + 1 == reps;
    const Quality q = EvaluateQuality(
        model, test,
        last ? test.NumSamples()
             : std::min(kWarmupWindows, test.NumSamples()),
        tally);
    tally->Attempt();
    if (rep > 0 && !(q.warmup_se == r.quality.warmup_se)) {
      tally->Fail("repetition " + std::to_string(rep) +
                  " forecasts differently from the first");
    }
    r.quality = q;
    if (last) {
      tally->Attempt(2);
      if (!(q.mse < q.zero_mse)) {
        tally->Fail("test MSE is not below the zero forecast's");
      }
      if (!(q.mse < q.mean_mse)) {
        tally->Fail("test MSE is not below the history-mean forecast's");
      }
    }
    if (rep == 0) {
      r.model = std::move(model_ptr);
      r.data = std::move(data);
    }
    serve();
  }
  return r;
}

/// Side passes of the traced run: tokenize every window x variable prompt
/// with PromptBuilder, then encode each window's P_HD and P_GT sets with
/// the frozen LM directly.
struct SidePasses {
  double tokenize_s = 0.0;
  int64_t prompts = 0;
  int64_t tokens = 0;
  double encode_hd_s = 0.0;
  double encode_gt_s = 0.0;
};

SidePasses RunSidePasses(core::TimeKd& model, const data::WindowDataset& ds,
                         SpanRecorder* rec) {
  SidePasses s;
  const core::TimeKdConfig& config = model.config();
  const text::PromptBuilder builder(config.prompt);
  const int64_t windows = ds.NumSamples();
  std::vector<std::vector<text::TokenizedPrompt>> hd(
      static_cast<size_t>(windows));
  std::vector<std::vector<text::TokenizedPrompt>> gt(
      static_cast<size_t>(windows));
  {
    ScopedSpan pass(rec, "text.side_pass");
    for (int64_t i = 0; i < windows; ++i) {
      std::vector<text::PromptSpec> specs;
      for (int64_t v = 0; v < ds.series().num_variables(); ++v) {
        text::PromptSpec spec;
        spec.t_start = ds.HistoryStart(i);
        spec.t_end = spec.t_start + ds.input_len() - 1;
        spec.freq_minutes = config.freq_minutes;
        spec.horizon = ds.horizon();
        spec.history = ds.HistoryValues(i, v);
        spec.future = ds.FutureValues(i, v);
        specs.push_back(std::move(spec));
      }
      ScopedSpan span(rec, "text.tokenize");
      const double t0 = NowMicros();
      for (const text::PromptSpec& spec : specs) {
        hd[static_cast<size_t>(i)].push_back(
            builder.TokenizeHistoricalPrompt(spec));
        gt[static_cast<size_t>(i)].push_back(
            builder.TokenizeGroundTruthPrompt(spec));
      }
      s.tokenize_s += (NowMicros() - t0) * 1e-6;
      for (const text::TokenizedPrompt& p : hd[static_cast<size_t>(i)]) {
        s.tokens += p.length();
      }
      for (const text::TokenizedPrompt& p : gt[static_cast<size_t>(i)]) {
        s.tokens += p.length();
      }
      s.prompts += 2 * static_cast<int64_t>(specs.size());
    }
  }
  const llm::LanguageModel* lm = model.clm().language_model();
  if (lm == nullptr) return s;
  const bool calibrated = config.use_calibrated_attention;
  tensor::NoGradGuard no_grad;
  ScopedSpan pass(rec, "llm.side_pass");
  for (int64_t i = 0; i < windows; ++i) {
    {
      ScopedSpan span(rec, "llm.encode_hd");
      const double t0 = NowMicros();
      lm->EncodeLastTokens(hd[static_cast<size_t>(i)], calibrated);
      s.encode_hd_s += (NowMicros() - t0) * 1e-6;
    }
    {
      ScopedSpan span(rec, "llm.encode_gt");
      const double t0 = NowMicros();
      lm->EncodeLastTokens(gt[static_cast<size_t>(i)], calibrated);
      s.encode_gt_s += (NowMicros() - t0) * 1e-6;
    }
  }
  return s;
}

/// A library metric read by name from a registry snapshot: a counter, a
/// gauge, or a histogram quantile. A metric the library no longer
/// registers is reported as absent rather than failing the run.
struct LibraryMetric {
  const char* name;
  const char* unit;
  const char* source;
  enum Kind { kCounter, kGauge, kP50, kP99 } kind;
};

// clang-format off
const LibraryMetric kLibraryMetrics[] = {
  {"llm.encode_calls",              "count", "clm/encode_calls",              LibraryMetric::kCounter},
  {"llm.encode_tokens",             "count", "clm/encode_tokens",             LibraryMetric::kCounter},
  {"nn.fused_attention_calls",      "count", "nn/fused_attention_calls",      LibraryMetric::kCounter},
  {"nn.fused_attention_flops",      "flop",  "nn/fused_attention_flops",      LibraryMetric::kCounter},
  {"nn.attention_calls",            "count", "nn/attention_calls",            LibraryMetric::kCounter},
  {"nn.attention_score_flops",      "flop",  "nn/attention_score_flops",      LibraryMetric::kCounter},
  {"tensor.matmul_calls",           "count", "tensor/matmul_calls",           LibraryMetric::kCounter},
  {"tensor.matmul_flops",           "flop",  "tensor/matmul_flops",           LibraryMetric::kCounter},
  {"tensor.softmax_calls",          "count", "tensor/softmax_calls",          LibraryMetric::kCounter},
  {"tensor.layernorm_calls",        "count", "tensor/layernorm_calls",        LibraryMetric::kCounter},
  {"tensor.transpose_calls",        "count", "tensor/transpose_calls",        LibraryMetric::kCounter},
  {"tensor.transpose_read_bytes",   "B",     "tensor/transpose_read_bytes",   LibraryMetric::kCounter},
  {"tensor.elementwise_calls",      "count", "tensor/elementwise_calls",      LibraryMetric::kCounter},
  {"tensor.peak_bytes",             "B",     "mem/tensor_peak_bytes",         LibraryMetric::kGauge},
  {"common.pool_jobs",              "count", "threadpool/jobs",               LibraryMetric::kCounter},
  {"common.pool_tasks",             "count", "threadpool/tasks",              LibraryMetric::kCounter},
  {"common.pool_queue_wait_p50_us", "us",    "threadpool/queue_wait_us",      LibraryMetric::kP50},
  {"common.pool_queue_wait_p99_us", "us",    "threadpool/queue_wait_us",      LibraryMetric::kP99},
  {"obs.health_anomalies",          "count", "health/anomalies",              LibraryMetric::kCounter},
};
// clang-format on

obs::MetricsSnapshot TakeSnapshot() {
  obs::RunPreDumpHooks();
  return obs::GlobalMetrics().Snapshot();
}

/// Reads `m` as the change from `before` to `after` (gauges read `after`).
/// Returns false when the library does not register the metric.
bool ReadLibraryMetric(const LibraryMetric& m,
                       const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after, double* value) {
  switch (m.kind) {
    case LibraryMetric::kCounter: {
      const auto a = after.counters.find(m.source);
      if (a == after.counters.end()) return false;
      const auto b = before.counters.find(m.source);
      const uint64_t base = b == before.counters.end() ? 0 : b->second;
      *value = static_cast<double>(a->second - base);
      return true;
    }
    case LibraryMetric::kGauge: {
      const auto a = after.gauges.find(m.source);
      if (a == after.gauges.end()) return false;
      *value = a->second;
      return true;
    }
    case LibraryMetric::kP50:
    case LibraryMetric::kP99: {
      const auto a = after.histograms.find(m.source);
      if (a == after.histograms.end()) return false;
      obs::MetricsSnapshot::HistogramValue delta = a->second;
      const auto b = before.histograms.find(m.source);
      if (b != before.histograms.end() &&
          b->second.bucket_counts.size() == delta.bucket_counts.size()) {
        for (size_t i = 0; i < delta.bucket_counts.size(); ++i) {
          delta.bucket_counts[i] -= b->second.bucket_counts[i];
        }
        delta.count -= b->second.count;
      }
      *value = obs::HistogramQuantile(delta,
                                      m.kind == LibraryMetric::kP50 ? 0.5 : 0.99);
      return true;
    }
  }
  return false;
}

/// Output metric: name, value, unit, in print order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// Prints each metric by name, value and unit, the operation counts, then
/// the JSON result as the last line of stdout.
void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %18s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::printf("  attempted %lld, failed %lld\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (const std::string& reason : tally.reasons) {
    std::printf("  failure: %s\n", reason.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Prints every library metric (whole process) for the untraced run, so
/// each run records the counters even though its JSON holds only the
/// end-to-end metrics.
void PrintLibraryMetrics(const obs::MetricsSnapshot& before,
                         const obs::MetricsSnapshot& after) {
  std::printf("library counters:\n");
  for (const LibraryMetric& m : kLibraryMetrics) {
    double v = 0.0;
    if (ReadLibraryMetric(m, before, after, &v)) {
      std::printf("  %-32s %18s %s\n", m.name, FormatNumber(v).c_str(),
                  m.unit);
    } else {
      std::printf("  %-32s %18s (absent)\n", m.name, "-");
    }
  }
}

/// Mean over slices of one latency percentile.
double SliceMean(const std::vector<LatencySlice>& slices,
                 double LatencySlice::*field) {
  double sum = 0.0;
  for (const LatencySlice& s : slices) sum += s.*field;
  return slices.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : sum / static_cast<double>(slices.size());
}

int RunUntraced(const Workload& w, const Options& opt) {
  Tally tally;
  const obs::MetricsSnapshot before = TakeSnapshot();
  const PassResult r = RunPipeline(w, opt, w.reps, opt.seconds,
                                   w.min_forecasts, nullptr, &tally);
  const obs::MetricsSnapshot after = TakeSnapshot();
  std::printf("setup_s, cache_build_s and train_s are medians of %zu "
              "repetitions; %lld training windows; latency percentiles are "
              "means over %zu slices of %zu timed forecasts in all, cycling "
              "over %lld test windows\n",
              r.setup_s.size(),
              static_cast<long long>(r.data->train.NumSamples()),
              r.slices.size(), r.infer_us.size(),
              static_cast<long long>(r.data->test.NumSamples()));
  std::printf("test MSE %.6f vs zero-forecast MSE %.6f, history-mean MSE %.6f\n",
              r.quality.mse, r.quality.zero_mse, r.quality.mean_mse);
  PrintLibraryMetrics(before, after);
  const std::vector<Metric> metrics = {
      {"setup_s", Median(r.setup_s), "s"},
      {"cache_build_s", Median(r.cache_build_s), "s"},
      {"train_s", Median(r.train_s), "s"},
      {"infer_p50_us", SliceMean(r.slices, &LatencySlice::p50_us), "us"},
      {"infer_p95_us", SliceMean(r.slices, &LatencySlice::p95_us), "us"},
      {"test_mse", r.quality.mse, "1"},
      {"test_mae", r.quality.mae, "1"},
      {"test_mse_rel", r.quality.mse / r.quality.mean_mse, "1"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintResult(tally, metrics);
  return 0;
}

int RunTraced(const Workload& w, const Options& opt) {
  Tally tally;
  SpanRecorder rec;
  // Traced pass first, in a fresh process like the untraced runs; the
  // library counters are the change across this pass alone.
  const obs::MetricsSnapshot before = TakeSnapshot();
  PassResult traced =
      RunPipeline(w, opt, 1, 0.0, kTracedForecasts, &rec, &tally);
  const obs::MetricsSnapshot after = TakeSnapshot();
  const SidePasses side = RunSidePasses(*traced.model, traced.data->train,
                                        &rec);
  const double traced_wall = traced.PipelineSeconds();
  const int64_t train_windows = traced.data->train.NumSamples();
  traced.model.reset();
  traced.data.reset();
  // Untraced reference pass with the same work, for the tracing overhead.
  const PassResult reference =
      RunPipeline(w, opt, 1, 0.0, kTracedForecasts, nullptr, &tally);
  const double reference_wall = reference.PipelineSeconds();

  const std::map<std::string, SpanRecorder::NameStats> spans = rec.Summarize();
  std::printf("spans (self time is the span minus its child spans):\n");
  std::printf("  %-28s %8s %12s %12s\n", "name", "count", "total_s", "self_s");
  for (const auto& [name, s] : spans) {
    std::printf("  %-28s %8lld %12.6f %12.6f\n", name.c_str(),
                static_cast<long long>(s.count), s.total_s, s.self_s);
  }
  const std::string trace_out = opt.trace_out.empty()
                                    ? "perfbench_" + opt.workload + "_seed" +
                                          std::to_string(opt.seed) +
                                          ".trace.json"
                                    : opt.trace_out;
  if (rec.WriteChromeTrace(trace_out)) {
    std::printf("chrome trace: %s (%zu spans)\n", trace_out.c_str(),
                rec.spans().size());
  } else {
    std::printf("chrome trace: cannot write %s\n", trace_out.c_str());
  }
  std::printf("%lld training windows; %zu timed forecasts\n",
              static_cast<long long>(train_windows), traced.infer_us.size());

  auto span_total = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };
  const double encode_s = span_total("core.clm.encode_sample");
  std::vector<Metric> metrics = {
      {"data.prepare_s", span_total("data.prepare"), "s"},
      {"core.init_s", span_total("core.init"), "s"},
      {"core.clm.encode_sample_calls",
       static_cast<double>(traced.encode_us.size()), "count"},
      {"core.clm.encode_sample_s", encode_s, "s"},
      {"core.clm.encode_sample_p50_us", Percentile(traced.encode_us, 0.50),
       "us"},
      {"core.clm.encode_sample_p99_us", Percentile(traced.encode_us, 0.99),
       "us"},
      {"core.cache.put_s", traced.cache_put_s, "s"},
      {"core.clm.other_s",
       encode_s - side.tokenize_s - side.encode_hd_s - side.encode_gt_s, "s"},
      {"text.tokenize_s", side.tokenize_s, "s"},
      {"text.prompts", static_cast<double>(side.prompts), "count"},
      {"text.tokens_per_prompt",
       side.prompts > 0 ? static_cast<double>(side.tokens) /
                              static_cast<double>(side.prompts)
                        : 0.0,
       "count"},
      {"llm.encode_hd_s", side.encode_hd_s, "s"},
      {"llm.encode_gt_s", side.encode_gt_s, "s"},
      {"core.teacher.steps", static_cast<double>(traced.fit.teacher_steps),
       "count"},
      {"core.teacher.step_p50_us", traced.fit.teacher_step_p50_us, "us"},
      {"core.teacher.phase_s", traced.fit.teacher_phase_s, "s"},
      {"core.student.steps", static_cast<double>(traced.fit.student_steps),
       "count"},
      {"core.student.step_p50_us", traced.fit.student_step_p50_us, "us"},
      {"core.student.phase_s", traced.fit.student_phase_s, "s"},
      {"core.fit.targets_s", traced.fit.targets_s, "s"},
      {"core.fit.validate_s", traced.fit.validate_s, "s"},
      {"core.predict_p99_us", Percentile(traced.infer_us, 0.99), "us"},
  };
  // The registry creates a metric on first use, so one that is absent has
  // recorded nothing in this process (the pool at one thread) or is gone
  // from the library; either way it reads as 0 and is named as absent.
  for (const LibraryMetric& m : kLibraryMetrics) {
    double v = 0.0;
    if (!ReadLibraryMetric(m, before, after, &v)) {
      std::printf("library metric %s (%s) is absent; reported as 0\n",
                  m.name, m.source);
    }
    metrics.push_back({m.name, v, m.unit});
  }
  metrics.push_back({"bench.trace_overhead_pct",
                     reference_wall > 0
                         ? 100.0 * (traced_wall - reference_wall) /
                               reference_wall
                         : 0.0,
                     "%"});
  PrintResult(tally, metrics);
  return 0;
}

/// Keeps the library's environment knobs from changing what is measured:
/// drops every TIMEKD_* variable, then pins the workload's thread count
/// before the thread pool is first used.
void PinEnvironment(const Workload& w) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("TIMEKD_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("TIMEKD_NUM_THREADS", std::to_string(w.threads).c_str(), 1);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: timekd_perfbench --workload "
               "<fit-gpt|distill-bert|fit-gpt-t2> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-nonfinite-forecast") {
      opt.inject_nonfinite = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown workload");
  PinEnvironment(*workload);
  std::printf("workload %s seed %llu trace %d threads %d seconds %g\n",
              workload->name, static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, workload->threads, opt.seconds);
  return opt.trace ? RunTraced(*workload, opt)
                   : RunUntraced(*workload, opt);
}
