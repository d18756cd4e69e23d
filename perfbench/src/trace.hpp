/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are opened and closed by the benchmark's own code around the
 * calls it makes into the library's public functions; nothing in the
 * library is instrumented. Each span keeps its name, start, end, the
 * span that was open when it began (its parent) and the operation id
 * it belongs to. Spans stay in memory until the run ends and are then
 * written out in one go, so writing never perturbs a timed operation.
 *
 * With tracing disabled every call is a no-op, so the untraced run
 * that yields the end-to-end metrics pays nothing for it.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = "";
    double start = 0.0; ///< seconds since the tracer was made
    double end = 0.0;
    int parent = -1;    ///< index into the span list, -1: top level
    std::uint64_t op = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Operation id stamped on spans opened from now on. */
    void setOp(std::uint64_t op) { op_ = op; }

    /** Open a span; @p name must outlive the tracer (a literal). */
    int open(const char *name);

    void close(int span);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Median over operation ids of the per-operation self time of
     * spans named @p name, in seconds (0 when there are none).
     */
    double medianSelfPerOp(const std::string &name) const;

    /** Write every span, one JSON object a line. */
    bool write(const std::string &path) const;

  private:
    std::vector<double> selfTimes() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; does nothing when the tracer is disabled. */
class Scoped
{
  public:
    Scoped(Tracer &t, const char *name)
        : t_(t), id_(t.enabled() ? t.open(name) : -1)
    {}
    ~Scoped()
    {
        if (id_ >= 0)
            t_.close(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer &t_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
