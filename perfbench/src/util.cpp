#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

namespace {
constexpr double kHistMin = 0.01;
constexpr double kHistGrowth = 1.002;
constexpr size_t kHistBuckets = 11600;  // kHistMin * 1.002^11600 ~ 1.2e8
const double kLogGrowth = std::log(kHistGrowth);
}  // namespace

LogHistogram::LogHistogram() : counts_(kHistBuckets, 0) {}

void LogHistogram::add(double value) {
  size_t b = 0;
  if (value > kHistMin)
    b = std::min(kHistBuckets - 1,
                 static_cast<size_t>(std::log(value / kHistMin) / kLogGrowth));
  ++counts_[b];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (size_t b = 0; b < kHistBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (size_t b = 0; b < kHistBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank)
      return kHistMin * std::pow(kHistGrowth, static_cast<double>(b) + 0.5);
  }
  return kHistMin * std::pow(kHistGrowth, static_cast<double>(kHistBuckets));
}

void Windows::add(double done_s, double latency_us) {
  const double offset = done_s - start_s;
  if (offset < 0.0) return;
  const size_t w = static_cast<size_t>(offset / width_s);
  if (w < latency.size()) latency[w].add(latency_us);
}

void Windows::merge(const Windows& other) {
  if (latency.empty()) {
    *this = other;
    return;
  }
  for (size_t w = 0; w < latency.size() && w < other.latency.size(); ++w)
    latency[w].merge(other.latency[w]);
}

double Windows::median_rate() const {
  std::vector<double> rates;
  for (const LogHistogram& h : latency)
    rates.push_back(static_cast<double>(h.count()) / width_s);
  return median(rates);
}

double Windows::median_quantile(double q) const {
  std::vector<double> values;
  for (const LogHistogram& h : latency)
    if (h.count() > 0) values.push_back(h.quantile(q));
  return median(values);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void set_affinity(long tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(static_cast<pid_t>(tid), sizeof(set), &set);
}

void pin(long tid, int cpu) { set_affinity(tid, {cpu}); }

double peak_rss_mb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix64(mix64(seed) ^ mix64(stream + 0x51ed2701ull));
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string jstr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string jnum(double v) { return std::isfinite(v) ? fmt17(v) : "null"; }

// --- FlatJson -------------------------------------------------------------

bool FlatJson::parse(const std::string& text) {
  fields_.clear();
  s_ = &text;
  pos_ = 0;
  std::string path;
  if (!value(path, 0)) return false;
  skip_ws();
  return pos_ == text.size();
}

const FlatJson::Value* FlatJson::find(std::string_view path) const {
  for (const auto& [key, value] : fields_)
    if (key == path) return &value;
  return nullptr;
}

double FlatJson::number(std::string_view path) const {
  const Value* v = find(path);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : NAN;
}

bool FlatJson::is_true(std::string_view path) const {
  const Value* v = find(path);
  return v != nullptr && v->kind == Kind::kBool && v->boolean;
}

void FlatJson::skip_ws() {
  const std::string& s = *s_;
  while (pos_ < s.size() &&
         (s[pos_] == ' ' || s[pos_] == '\n' || s[pos_] == '\t' ||
          s[pos_] == '\r'))
    ++pos_;
}

bool FlatJson::string(std::string& out) {
  const std::string& s = *s_;
  if (pos_ >= s.size() || s[pos_] != '"') return false;
  ++pos_;
  while (pos_ < s.size()) {
    const char c = s[pos_++];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= s.size()) return false;
    const char e = s[pos_++];
    if (e == 'u') {
      if (pos_ + 4 > s.size()) return false;
      pos_ += 4;
      out += '?';
    } else {
      out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
    }
  }
  return false;
}

bool FlatJson::value(std::string& path, int depth) {
  if (depth > 32) return false;
  skip_ws();
  const std::string& s = *s_;
  if (pos_ >= s.size()) return false;
  const char c = s[pos_];
  const auto nested = [&](char close, bool keyed) {
    ++pos_;
    skip_ws();
    if (pos_ < s.size() && s[pos_] == close) {
      ++pos_;
      return true;
    }
    for (size_t index = 0;; ++index) {
      skip_ws();
      const size_t len = path.size();
      if (!path.empty()) path += '.';
      if (keyed) {
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= s.size() || s[pos_] != ':') return false;
        ++pos_;
        path += key;
      } else {
        path += std::to_string(index);
      }
      if (!value(path, depth + 1)) return false;
      path.resize(len);
      skip_ws();
      if (pos_ < s.size() && s[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s.size() && s[pos_] == close) {
        ++pos_;
        return true;
      }
      return false;
    }
  };
  if (c == '{') return nested('}', true);
  if (c == '[') return nested(']', false);

  Value v;
  if (c == '"') {
    v.kind = Kind::kString;
    if (!string(v.text)) return false;
  } else if (s.compare(pos_, 4, "true") == 0) {
    v.kind = Kind::kBool;
    v.boolean = true;
    pos_ += 4;
  } else if (s.compare(pos_, 5, "false") == 0) {
    v.kind = Kind::kBool;
    pos_ += 5;
  } else if (s.compare(pos_, 4, "null") == 0) {
    pos_ += 4;
  } else if (c == '-' || (c >= '0' && c <= '9')) {
    char* end = nullptr;
    v.kind = Kind::kNumber;
    v.number = std::strtod(s.c_str() + pos_, &end);
    pos_ = static_cast<size_t>(end - s.c_str());
  } else {
    return false;
  }
  fields_.emplace_back(path, std::move(v));
  return true;
}

}  // namespace perfbench
