#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

void Digest::add(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, value);
}

std::uint64_t Digest::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [key, value] : fields_)
    mix(key + "=" + std::to_string(value) + ";");
  return h;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash()));
  return buf;
}

namespace {

/// 0-based nearest-rank index of percentile p among n >= 1 samples.
std::size_t rank_index(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<std::size_t>(std::clamp(r, 1.0, static_cast<double>(n))) -
         1;
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_index(sorted.size(), p)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, p);
}

TailChoice choose_tail(const std::vector<double>& sorted,
                       std::size_t min_beyond) {
  TailChoice out;
  out.percentile = 50;
  for (int p = 99; p >= 50; --p) {
    if (samples_beyond(sorted.size(), p) >= min_beyond) {
      out.percentile = p;
      break;
    }
  }
  out.beyond = samples_beyond(sorted.size(), out.percentile);
  out.value = nearest_rank(sorted, out.percentile);
  return out;
}

double pct_of(double part, double base) {
  return base != 0.0 ? 100.0 * part / base : 0.0;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

SpanRecorder::SpanRecorder(std::uint64_t run_id)
    : epoch_(Clock::now()), run_id_(run_id) {}

double SpanRecorder::us_of(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, const std::string& name)
    : rec_(rec) {
  if (!rec_) return;
  Span s;
  s.name = name;
  s.layer = name.substr(0, name.find('.'));
  s.parent = rec_->open_;
  s.run_id = rec_->run_id_;
  s.start_us = rec_->us_of(Clock::now());
  rec_->spans_.push_back(std::move(s));
  index_ = static_cast<int>(rec_->spans_.size()) - 1;
  rec_->open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (!rec_) return;
  auto& s = rec_->spans_[static_cast<std::size_t>(index_)];
  s.end_us = rec_->us_of(Clock::now());
  rec_->open_ = s.parent;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double self = s.end_us - s.start_us - child_us[i];
    out[s.layer] += self / 1e6;
  }
  return out;
}

double SpanRecorder::total_seconds(const std::string& name) const {
  double us = 0.0;
  for (const auto& s : spans_)
    if (s.name == name) us += s.end_us - s.start_us;
  return us / 1e6;
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (i) os << ",";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":%llu,\"tid\":0,\"ts\":%.3f,"
                  "\"dur\":%.3f",
                  static_cast<unsigned long long>(s.run_id), s.start_us,
                  s.end_us - s.start_us);
    os << "\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer << "\","
       << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"run_id\":" << s.run_id << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
