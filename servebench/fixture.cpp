// Set-up: data generation, training, fit, and the PipelineIo round trip,
// plus the report/span utilities every workload shares.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/pipeline_io.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "metrics/ecdf.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/indoor_generator.hpp"
#include "roadsim/outdoor_generator.hpp"

namespace servebench {

using namespace salnov;

namespace {

// The trained pipeline is part of the system under test, not of the
// workload: it is built from a fixed seed so every run serves the same
// model and quality figures differ between seeds only through the frames.
// The budget is small enough to set up several times per run and still
// separates DSI-sim from DSU-sim (see README.md, "Set-up").
constexpr uint64_t kSetupSeed = 7;
constexpr int64_t kTrainImages = 100;
constexpr int64_t kSteeringEpochs = 2;
constexpr double kSteeringLearningRate = 2e-3;
constexpr int64_t kAutoencoderEpochs = 20;
constexpr double kAutoencoderLearningRate = 3e-3;
constexpr int64_t kHeight = 60;
constexpr int64_t kWidth = 160;

double seconds_since(int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) * 1e-9; }

}  // namespace

Fixture build_fixture(uint64_t seed, const std::string& scratch_path, SetupTimes& times) {
  Fixture fx;
  const roadsim::OutdoorSceneGenerator outdoor;
  const roadsim::IndoorSceneGenerator indoor;

  int64_t t = now_ns();
  Rng train_rng(kSetupSeed);
  const roadsim::DrivingDataset train =
      roadsim::DrivingDataset::generate(outdoor, kTrainImages, kHeight, kWidth, train_rng);
  {
    // The workload's frames, in a seeded order.
    Rng frame_rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const roadsim::DrivingDataset nominal =
        roadsim::DrivingDataset::generate(outdoor, kNominalFrames, kHeight, kWidth, frame_rng);
    const roadsim::DrivingDataset novel =
        roadsim::DrivingDataset::generate(indoor, kNovelFrames, kHeight, kWidth, frame_rng);
    std::vector<int64_t> order(static_cast<size_t>(kNominalFrames + kNovelFrames));
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
    frame_rng.shuffle(order);
    for (const int64_t i : order) {
      const bool is_novel = i >= kNominalFrames;
      fx.pool.frames.push_back(is_novel ? novel.image(i - kNominalFrames) : nominal.image(i));
      fx.pool.indoor.push_back(is_novel);
    }
  }
  times.generate = seconds_since(t);

  t = now_ns();
  nn::Sequential steering = driving::build_pilotnet(driving::PilotNetConfig::compact(), train_rng);
  driving::SteeringTrainOptions steer_options;
  steer_options.epochs = kSteeringEpochs;
  steer_options.learning_rate = kSteeringLearningRate;
  driving::train_steering_model(steering, train, steer_options, train_rng);
  times.steering_train = seconds_since(t);

  t = now_ns();
  core::NoveltyDetectorConfig config = core::NoveltyDetectorConfig::proposed();
  config.height = kHeight;
  config.width = kWidth;
  config.train_epochs = kAutoencoderEpochs;
  config.learning_rate = kAutoencoderLearningRate;
  {
    core::NoveltyDetector detector(config);
    detector.attach_steering_model(&steering);
    detector.fit(train.images(), train_rng);
    times.detector_fit = seconds_since(t);

    t = now_ns();
    core::PipelineIo::save_file(scratch_path, detector, &steering);
    times.pipeline_save = seconds_since(t);
  }

  t = now_ns();
  core::LoadedPipeline loaded = core::PipelineIo::load_file(scratch_path);
  times.pipeline_load = seconds_since(t);
  std::filesystem::remove(scratch_path);
  if (!loaded.steering_model || !loaded.detector || !loaded.detector->has_quant_path()) {
    throw std::runtime_error("set-up: loaded pipeline lacks the steering model or q8 path");
  }
  fx.steering = std::move(loaded.steering_model);
  fx.detector = std::move(loaded.detector);
  return fx;
}

// --- Report / statistics -----------------------------------------------------

void Report::add(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

double percentile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : EmpiricalCdf(values).upper_quantile(p);
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// --- Spans -------------------------------------------------------------------

int64_t SpanLog::begin(const std::string& name, int64_t parent, int64_t frame) {
  spans_.push_back(Span{name, now_ns(), 0, parent, frame});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::end(int64_t span) { spans_[static_cast<size_t>(span)].end_ns = now_ns(); }

std::vector<int64_t> SpanLog::self_times_ns() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const int64_t covered = std::min(s.end_ns, p.end_ns) - std::max(s.start_ns, p.start_ns);
    if (covered > 0) self[static_cast<size_t>(s.parent)] -= covered;
  }
  return self;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write span log " + path);
  const std::vector<int64_t> self = self_times_ns();
  os << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"frame\":" << s.frame
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i] << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

// --- Host steal time -----------------------------------------------------------

void StealLog::sample() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  if (stat >> cpu && cpu == "cpu") {
    for (int64_t& f : fields) stat >> f;
  }
  readings_.emplace_back(now_ns(), fields[7]);
}

double StealLog::share(int64_t begin_ns, int64_t end_ns) const {
  if (readings_.size() < 2) return 0.0;
  size_t first = 0, last = readings_.size() - 1;
  while (first + 1 < readings_.size() && readings_[first + 1].first <= begin_ns) ++first;
  while (last > 0 && readings_[last - 1].first >= end_ns) --last;
  if (last <= first) return 0.0;
  static const double vcpu_ticks_per_s =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency())) *
      static_cast<double>(sysconf(_SC_CLK_TCK));
  const double span_s = static_cast<double>(readings_[last].first - readings_[first].first) * 1e-9;
  return static_cast<double>(readings_[last].second - readings_[first].second) /
         (span_s * vcpu_ticks_per_s);
}

std::vector<int64_t> windows_by_time(const std::vector<FrameTiming>& frames, double window_s) {
  int64_t first = std::numeric_limits<int64_t>::max();
  for (const FrameTiming& f : frames) first = std::min(first, f.start_ns);
  std::vector<int64_t> window;
  for (const FrameTiming& f : frames) {
    window.push_back(static_cast<int64_t>(static_cast<double>(f.start_ns - first) / (window_s * 1e9)));
  }
  return window;
}

void add_windowed_latency(const std::vector<FrameTiming>& frames,
                          const std::vector<int64_t>& window, double window_quantile,
                          const StealLog& steal, Report& report) {
  std::map<int64_t, std::vector<const FrameTiming*>> windows;
  for (size_t i = 0; i < frames.size(); ++i) windows[window[i]].push_back(&frames[i]);
  size_t largest = 0;
  for (const auto& [w, members] : windows) largest = std::max(largest, members.size());
  struct Figures {
    double steal_share, frame_period_s, p50, p90, p99;
  };
  std::vector<Figures> all;
  int64_t run_begin = std::numeric_limits<int64_t>::max(), run_end = 0;
  for (const auto& [w, members] : windows) {
    if (2 * members.size() < largest) continue;
    int64_t begin = std::numeric_limits<int64_t>::max(), end = 0;
    std::vector<double> latency_ms;
    for (const FrameTiming* f : members) {
      begin = std::min(begin, f->start_ns);
      end = std::max(end, f->end_ns);
      latency_ms.push_back(static_cast<double>(f->end_ns - f->start_ns) * 1e-6);
    }
    run_begin = std::min(run_begin, begin);
    run_end = std::max(run_end, end);
    all.push_back({steal.share(begin, end),
                   static_cast<double>(end - begin) * 1e-9 / static_cast<double>(members.size()),
                   percentile(latency_ms, 0.50), percentile(latency_ms, 0.90),
                   percentile(latency_ms, 0.99)});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Figures& a, const Figures& b) { return a.steal_share < b.steal_share; });
  size_t kept = 0;
  while (kept < all.size() && all[kept].steal_share <= kDisturbedStealShare) ++kept;
  kept = std::max(kept, (all.size() + 3) / 4);
  std::vector<double> frame_period_s, p50, p90, p99;
  for (size_t i = 0; i < kept; ++i) {
    frame_period_s.push_back(all[i].frame_period_s);
    p50.push_back(all[i].p50);
    p90.push_back(all[i].p90);
    p99.push_back(all[i].p99);
  }
  const int64_t n = static_cast<int64_t>(frames.size());
  report.add("frames_per_s", 1.0 / percentile(frame_period_s, window_quantile), "frames/s", n);
  report.add("frame_p50_ms", percentile(p50, window_quantile), "ms", n);
  report.add("frame_p90_ms", percentile(p90, window_quantile), "ms", n);
  report.add("frame_p99_ms", percentile(p99, window_quantile), "ms", n);
  report.add("host.steal_share", steal.share(run_begin, run_end), "ratio", 1);
  report.add("host.kept_window_share",
             static_cast<double>(kept) / static_cast<double>(std::max<size_t>(1, all.size())), "ratio",
             static_cast<int64_t>(all.size()));
}

void add_serving_metrics(const std::vector<FrameOutcome>& frames, const std::vector<int64_t>& window,
                         double window_quantile, const StealLog& steal, int64_t attempted,
                         double limit_ms, int64_t failed, Report& report) {
  std::vector<FrameTiming> timings;
  int64_t met = 0, novel = 0, flagged_novel = 0, nominal = 0, flagged_nominal = 0;
  int64_t scored = 0, sensor_bad = 0, abandoned = 0;
  for (const FrameOutcome& f : frames) {
    const salnov::serving::ServeResult& r = *f.result;
    timings.push_back(f.timing);
    scored += r.scored;
    abandoned += r.abandoned;
    if (r.sensor_bad) {
      ++sensor_bad;
      continue;
    }
    met += r.scored && static_cast<double>(f.timing.end_ns - f.timing.start_ns) * 1e-6 <= limit_ms;
    (f.indoor ? novel : nominal) += 1;
    (f.indoor ? flagged_novel : flagged_nominal) += r.scored && r.novel;
  }
  const int64_t valid = attempted - sensor_bad;
  const double met_rate = static_cast<double>(met) / static_cast<double>(valid);
  const double false_alarms = static_cast<double>(flagged_nominal) / static_cast<double>(nominal);
  add_windowed_latency(timings, window, window_quantile, steal, report);
  report.add("deadline_met_rate", met_rate, "ratio", valid);
  report.add("deadline_miss_rate", 1.0 - met_rate, "ratio", valid);
  report.add("novel_detect_rate", static_cast<double>(flagged_novel) / static_cast<double>(novel),
             "ratio", novel);
  report.add("false_alarm_rate", false_alarms, "ratio", nominal);
  report.add("nominal_pass_rate", 1.0 - false_alarms, "ratio", nominal);
  report.add("frames.attempted", static_cast<double>(attempted), "frames", 1);
  report.add("frames.scored", static_cast<double>(scored), "frames", 1);
  report.add("frames.sensor_bad", static_cast<double>(sensor_bad), "frames", 1);
  report.add("frames.abandoned", static_cast<double>(abandoned), "frames", 1);
  report.add("frames.failed", static_cast<double>(failed), "frames", 1);
}

void add_span_percentiles(Report& report, const std::string& prefix,
                          const std::vector<double>& us) {
  const int64_t n = static_cast<int64_t>(us.size());
  report.add(prefix + ".p50_us", percentile(us, 0.50), "us", n);
  report.add(prefix + ".p99_us", percentile(us, 0.99), "us", n);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace servebench
