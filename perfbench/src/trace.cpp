#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

int
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.start = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - origin_)
                  .count();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int span)
{
    spans_[static_cast<std::size_t>(span)].end =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      origin_)
            .count();
    // Spans nest strictly (RAII), so the closing span is the top.
    if (!stack_.empty() && stack_.back() == span)
        stack_.pop_back();
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
}

double
Tracer::medianSelfPerOp(const std::string &name) const
{
    const std::vector<double> self = selfTimes();
    std::map<std::uint64_t, double> per_op;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            per_op[spans_[i].op] += self[i];
    if (per_op.empty())
        return 0.0;
    std::vector<double> v;
    for (const auto &[op, t] : per_op)
        v.push_back(t);
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<double> self = selfTimes();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, "
                     "\"parent\": %d, \"start\": %.9f, \"end\": %.9f, "
                     "\"self\": %.9f}\n",
                     i, s.name, static_cast<unsigned long long>(s.op),
                     s.parent, s.start, s.end, self[i]);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
