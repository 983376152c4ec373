#include "load.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <thread>

#include "net.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::chrono::microseconds kSpin{200};

constexpr std::string_view kReloadWire =
    "POST /v1/admin/reload HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    "Content-Length: 2\r\n\r\n{}";

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double thread_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

void note(PhaseResult* out, std::string text) {
  if (out->notes.size() < 5) out->notes.push_back(std::move(text));
}

}  // namespace

void ReloadPlan::swap() {
  const std::filesystem::path staged = live.string() + ".staged";
  std::filesystem::remove(staged);
  std::filesystem::create_hard_link(next_is_b ? b : a, staged);
  std::filesystem::rename(staged, live);
  next_is_b = !next_is_b;
}

bool check_answer(const Expected& expected, std::uint32_t id, int status,
                  std::string body, PhaseResult* out) {
  if (status != 200) {
    note(out, "HTTP " + std::to_string(status) + ": " + body);
    return false;
  }
  const std::string& a = expected.a[id];
  if (a.empty()) {
    out->deferred.push_back({id, std::move(body)});
    return true;
  }
  if (body == a || (!expected.b.empty() && body == expected.b[id])) {
    return true;
  }
  note(out, "request " + std::to_string(id) + " answered " + body);
  return false;
}

void merge(PhaseResult* into, PhaseResult&& from) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  const auto append = [](auto& dst, auto& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  };
  append(into->latency_us, from.latency_us);
  append(into->service_us, from.service_us);
  append(into->ids, from.ids);
  append(into->due_s, from.due_s);
  append(into->done_s, from.done_s);
  append(into->lag_us, from.lag_us);
  append(into->deferred, from.deferred);
  for (std::string& n : from.notes) note(into, std::move(n));
  into->cpu_s += from.cpu_s;
}

PhaseResult run_phase(const Workload& workload, const Expected& expected,
                      const LoadSpec& spec) {
  const std::size_t base = *spec.cursor;
  const bool open_loop = spec.rate > 0.0;
  std::atomic<std::uint64_t> next{0};
  std::vector<PhaseResult> parts(static_cast<std::size_t>(spec.clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.seconds));

  const auto client = [&](int index) {
    prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us wake-up slack, not 50 us
    PhaseResult& out = parts[static_cast<std::size_t>(index)];
    Conn conn(spec.port);
    ReloadPlan* reload = index == 0 ? spec.reload : nullptr;
    Clock::time_point next_reload =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(reload ? reload->period_s
                                                         : 0.0));
    int status = 0;
    std::string body;
    const double cpu0 = thread_cpu_s();
    for (;;) {
      Clock::time_point now = Clock::now();
      if (reload != nullptr && now >= next_reload) {
        reload->swap();
        ++reload->posted;
        if (!conn.roundtrip(kReloadWire, &status, &body) || status != 202) {
          ++reload->refused;
        }
        next_reload += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(reload->period_s));
        now = Clock::now();
      }
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      Clock::time_point due = now;
      if (open_loop) {
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / spec.rate));
        if (due >= end) break;
        // Sleep to shortly before the due time, then spin: a sleeping
        // generator's wake-up jitter would otherwise count as latency.
        std::this_thread::sleep_until(due - kSpin);
        while (Clock::now() < due) {
        }
      } else if (now >= end) {
        break;
      }
      const std::uint32_t id =
          workload.stream[(base + i) % workload.stream.size()];
      const Clock::time_point sent = Clock::now();
      const bool ok =
          conn.roundtrip(workload.requests[id].wire, &status, &body);
      const Clock::time_point done = Clock::now();
      ++out.attempted;
      bool good = false;
      if (!ok) {
        note(&out, "transport failure on request " + std::to_string(id));
      } else {
        good = check_answer(expected, id, status, std::move(body), &out);
      }
      if (!good) ++out.failed;
      constexpr double kFailed = std::numeric_limits<double>::infinity();
      out.latency_us.push_back(good ? 1e6 * seconds_between(due, done)
                                    : kFailed);
      out.service_us.push_back(good ? 1e6 * seconds_between(sent, done)
                                    : kFailed);
      out.ids.push_back(id);
      out.done_s.push_back(seconds_between(start, done));
      if (open_loop) {
        out.due_s.push_back(seconds_between(start, due));
        out.lag_us.push_back(1e6 * seconds_between(due, sent));
      }
    }
    out.cpu_s = thread_cpu_s() - cpu0;
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  for (PhaseResult& part : parts) merge(&result, std::move(part));
  result.seconds = seconds_between(start, Clock::now());
  *spec.cursor = base + next.load();
  return result;
}

PhaseResult send_sequential(const Workload& workload, const Expected& expected,
                            int port, const std::vector<std::uint32_t>& ids) {
  PhaseResult out;
  Conn conn(port);
  int status = 0;
  std::string body;
  for (const std::uint32_t id : ids) {
    ++out.attempted;
    if (!conn.roundtrip(workload.requests[id].wire, &status, &body)) {
      note(&out, "transport failure on request " + std::to_string(id));
      ++out.failed;
    } else if (!check_answer(expected, id, status, std::move(body), &out)) {
      ++out.failed;
    }
  }
  return out;
}

}  // namespace perfbench
