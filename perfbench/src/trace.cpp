#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench::trace {

namespace {

constexpr std::uint32_t no_parent = UINT32_MAX;

struct span {
    std::uint32_t name = 0;
    std::uint32_t parent = no_parent;
    std::uint64_t unit = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    bool probe = false;
};

std::atomic<bool> g_enabled{false};

std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

struct thread_buffer {
    std::vector<span> spans;
    std::uint32_t open = no_parent;
};

namespace {

struct registry {
    std::mutex mutex;
    std::vector<std::unique_ptr<thread_buffer>> buffers;
    std::vector<std::string> names;
};

registry& reg()
{
    static registry r;
    return r;
}

thread_buffer& local_buffer()
{
    thread_local thread_buffer* buf = nullptr;
    if (buf == nullptr) {
        auto owned = std::make_unique<thread_buffer>();
        buf = owned.get();
        const std::lock_guard<std::mutex> lock(reg().mutex);
        reg().buffers.push_back(std::move(owned));
    }
    return *buf;
}

} // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint32_t intern(std::string_view name)
{
    registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t i = 0; i < r.names.size(); ++i) {
        if (r.names[i] == name) {
            return static_cast<std::uint32_t>(i);
        }
    }
    r.names.emplace_back(name);
    return static_cast<std::uint32_t>(r.names.size() - 1);
}

scope::scope(std::uint32_t name, std::uint64_t unit, bool probe)
{
    if (!enabled()) {
        return;
    }
    buf_ = &local_buffer();
    index_ = static_cast<std::uint32_t>(buf_->spans.size());
    span s;
    s.name = name;
    s.parent = buf_->open;
    s.unit = unit;
    s.probe = probe;
    buf_->spans.push_back(s);
    buf_->open = index_;
    buf_->spans[index_].start_ns = now_ns();
}

scope::~scope()
{
    if (buf_ == nullptr) {
        return;
    }
    span& s = buf_->spans[index_];
    s.end_ns = now_ns();
    buf_->open = s.parent;
}

summary summarize()
{
    registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mutex);
    summary out;
    for (const auto& buf : r.buffers) {
        const std::vector<span>& spans = buf->spans;
        std::vector<std::int64_t> child_ns(spans.size(), 0);
        std::vector<std::int64_t> probe_ns(spans.size(), 0);
        std::vector<bool> in_probe(spans.size(), false);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const span& s = spans[i];
            if (s.end_ns == 0) {
                throw std::logic_error("trace: span still open");
            }
            const std::int64_t dur = s.end_ns - s.start_ns;
            if (s.parent != no_parent) {
                child_ns[s.parent] += dur;
                in_probe[i] = in_probe[s.parent];
            }
            if (s.probe && !in_probe[i]) {
                // An outermost probe: its time is charged to no ancestor.
                for (std::uint32_t a = s.parent; a != no_parent;
                     a = spans[a].parent) {
                    probe_ns[a] += dur;
                }
            }
            in_probe[i] = in_probe[i] || s.probe;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const span& s = spans[i];
            const std::string& name = r.names[s.name];
            const std::int64_t dur = s.end_ns - s.start_ns;
            out.self_s[name] += static_cast<double>(dur - child_ns[i]) * 1e-9;
            ++out.calls[name];
            out.durations_s[name].push_back(
                static_cast<double>(dur - probe_ns[i]) * 1e-9);
            if (s.probe && (s.parent == no_parent || !in_probe[s.parent])) {
                out.probe_s += static_cast<double>(dur) * 1e-9;
            }
        }
    }
    return out;
}

void write_csv(const std::string& path)
{
    registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mutex);
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("trace: cannot write " + path);
    }
    out << "thread,name,parent,unit,start_ns,end_ns,probe\n";
    for (std::size_t t = 0; t < r.buffers.size(); ++t) {
        for (const span& s : r.buffers[t]->spans) {
            out << t << ',' << r.names[s.name] << ','
                << (s.parent == no_parent ? std::int64_t{-1}
                                          : std::int64_t{s.parent})
                << ',' << s.unit << ',' << s.start_ns << ',' << s.end_ns
                << ',' << (s.probe ? 1 : 0) << '\n';
        }
    }
    if (!out) {
        throw std::runtime_error("trace: write failed for " + path);
    }
}

} // namespace perfbench::trace
