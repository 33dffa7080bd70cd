#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "sim/report.hh"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point process_start =
    std::chrono::steady_clock::now();

/** Small dense id of the calling thread (0 for the first caller). */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next++;
    return index;
}

/** Spans open on this thread, innermost last. */
thread_local std::vector<int> open_stack;

} // anonymous namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - process_start)
            .count());
}

SpanRecorder &
spans()
{
    static SpanRecorder recorder;
    return recorder;
}

int
SpanRecorder::begin(const char *name, int parent)
{
    if (!on)
        return no_span;
    Span s;
    s.name = name;
    s.parent = parent != no_span ? parent : current();
    s.thread = threadIndex();
    s.rep = rep;
    int id;
    {
        std::lock_guard<std::mutex> lock(mutex);
        id = static_cast<int>(all.size());
        all.push_back(std::move(s));
    }
    open_stack.push_back(id);
    // Stamp the start last so the bookkeeping above is not charged
    // to the span.
    const std::uint64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex);
    all[static_cast<std::size_t>(id)].startNs = t;
    return id;
}

void
SpanRecorder::end(int id)
{
    const std::uint64_t t = nowNs();
    if (!open_stack.empty() && open_stack.back() == id)
        open_stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex);
    all[static_cast<std::size_t>(id)].endNs = t;
}

int
SpanRecorder::current() const
{
    return open_stack.empty() ? no_span : open_stack.back();
}

std::vector<double>
SpanRecorder::durationsMs(const std::string &name, int rep) const
{
    std::vector<double> out;
    for (const Span &s : all)
        if (s.name == name &&
            (rep < 0 || s.rep == static_cast<unsigned>(rep)))
            out.push_back(s.ms());
    return out;
}

double
SpanRecorder::totalMs(const std::string &name, int rep) const
{
    double total = 0.0;
    for (const double ms : durationsMs(name, rep))
        total += ms;
    return total;
}

std::map<std::string, double>
SpanRecorder::selfTimes() const
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(all.size());
    for (const Span &s : all)
        if (s.parent != no_span)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startNs, s.endNs);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent:
        // children on worker threads may overlap one another.
        std::uint64_t covered = 0, reach = s.startNs;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            b = std::min(b, s.endNs);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[s.name] +=
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-6;
    }
    return self;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &run_id,
                               const std::string &metadata) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(
            f,
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
            "\"args\": {\"id\": %zu, \"parent\": %d, \"rep\": %u, "
            "\"run\": \"%s\"}}%s\n",
            nosq::jsonEscape(s.name).c_str(),
            nosq::jsonEscape(s.name.substr(0, s.name.find('.')))
                .c_str(),
            static_cast<double>(s.startNs) * 1e-3,
            static_cast<double>(s.endNs - s.startNs) * 1e-3, s.thread,
            i, s.parent, s.rep, nosq::jsonEscape(run_id).c_str(),
            i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"displayTimeUnit\": \"ms\",\n"
                    "\"otherData\": %s}\n",
                 metadata.c_str());
    return std::fclose(f) == 0;
}

} // namespace perfbench
