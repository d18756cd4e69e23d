/**
 * @file
 * Workload `serve`: an open loop of batch-predict requests sent at
 * scheduled (Poisson) arrival times to an in-process server over one
 * loopback connection.
 *
 * Rows per request are uniform on [1, 256], so requests take both the
 * engine's inline scalar path (<= 16 rows) and its GEMM path, and the
 * latency distribution has no gap for the median to jump across. With
 * a median of 128 rows a request's own work, not the host's wake-up
 * latency, dominates what the reference phase measures.
 * Every request is timed from its due time, not its send time, so a
 * stall also charges the requests queued behind it.
 *
 * Phases: warm-up, then a reference phase at the fixed rate kRefRate
 * (well below saturation) that gives the latency metrics, then a
 * stepped rate search: rates grow by kRateStep until a probe misses
 * the latency limit (p99 over the probe <= kLimitMs, which a growing
 * backlog breaks within a probe), then bisect between the last pass
 * and the first miss. The highest passing rate is max_rate_per_s.
 */
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/serialize.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "train.hpp"

namespace perfbench {

using namespace hwsw;

namespace {

constexpr double kRefRate = 500.0;    ///< requests/s, reference
constexpr double kLimitMs = 20.0;      ///< limit on the tail
constexpr std::size_t kTailWindow = 1000; ///< tail = p99 per window
constexpr double kProbeTailQ = 0.99;   ///< probe tail, over the probe
constexpr double kRateStep = 2.0;      ///< coarse search multiplier
constexpr int kBisections = 5;
constexpr double kMaxRate = 1e6;       ///< search ceiling, requests/s
// Shares of --seconds: warm-up, reference phase, one probe.
constexpr double kWarmShare = 0.03;
constexpr double kRefShare = 0.5;
constexpr double kProbeShare = 0.05;
constexpr double kTimeoutS = 1.0;      ///< a request this late failed
constexpr double kAbortS = 0.1;        ///< backlog age that ends a probe
constexpr std::size_t kPlanSize = 512; ///< distinct requests, cycled
constexpr std::size_t kPoolPairsPerApp = 64;
constexpr std::size_t kMaxRows = 256;
constexpr int kSetupReps = 31;

/** The requests the generator cycles through, with their answers. */
struct Plan
{
    std::vector<std::string> frames;   ///< length-prefixed requests
    std::vector<std::string> expected; ///< exact response text
    std::vector<std::vector<serve::FeatureVector>> rows;
};

Plan
makePlan(const core::HwSwModel &model, const core::Dataset &pool,
         std::uint64_t seed)
{
    Plan plan;
    Rng rng(seed);
    for (std::size_t q = 0; q < kPlanSize; ++q) {
        const std::size_t n = 1 + rng.nextInt(kMaxRows);
        std::vector<serve::FeatureVector> rows;
        std::string answer = "ok 1 " + std::to_string(n);
        for (std::size_t i = 0; i < n; ++i) {
            const core::ProfileRecord &rec =
                pool[rng.nextInt(pool.size())];
            rows.push_back(rec.vars);
            answer += ' ';
            answer += serve::formatDouble(model.predict(rec));
        }
        std::string frame;
        serve::appendFrame(frame, serve::makeBatchRequest("default", rows));
        plan.frames.push_back(std::move(frame));
        plan.expected.push_back(std::move(answer));
        plan.rows.push_back(std::move(rows));
    }
    return plan;
}

/** One loopback connection, non-blocking. */
class Conn
{
  public:
    explicit Conn(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw std::runtime_error("serve: cannot connect");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

struct PhaseResult
{
    std::vector<double> latency; ///< seconds, due -> response
    std::vector<double> late;    ///< seconds, due -> send
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;
    bool broken = false; ///< transport failure or stray response
    bool aborted = false; ///< sending stopped early on a backlog
};

/**
 * Send Poisson arrivals at @p rate for @p seconds, then wait for
 * every response. Requests cycle through the plan from @p next.
 */
PhaseResult
runPhase(Conn &conn, const Plan &plan, double rate, double seconds,
         Rng &rng, std::size_t &next)
{
    PhaseResult res;
    struct InFlight
    {
        Clock::time_point due;
        std::size_t req;
    };
    std::deque<InFlight> inflight;
    std::string out;
    std::size_t out_pos = 0;
    serve::FrameDecoder decoder;
    std::string payload;
    std::vector<char> buf(1 << 16);

    const auto start = Clock::now();
    auto stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    auto due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               rng.nextExponential(1.0 / rate)));

    while (due < stop || !inflight.empty()) {
        auto now = Clock::now();
        while (due < stop && due <= now) {
            const std::size_t q = next++ % plan.frames.size();
            out += plan.frames[q];
            inflight.push_back({due, q});
            res.late.push_back(secondsBetween(due, now));
            ++res.sent;
            due += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    rng.nextExponential(1.0 / rate)));
        }
        while (out_pos < out.size()) {
            const ssize_t w = ::send(conn.fd(), out.data() + out_pos,
                                     out.size() - out_pos, MSG_NOSIGNAL);
            if (w <= 0) {
                if (w < 0 && (errno == EAGAIN || errno == EINTR))
                    break;
                res.broken = true;
                return res;
            }
            out_pos += static_cast<std::size_t>(w);
        }
        if (out_pos == out.size()) {
            out.clear();
            out_pos = 0;
        }
        for (;;) {
            const ssize_t got = ::recv(conn.fd(), buf.data(), buf.size(), 0);
            if (got > 0) {
                decoder.feed(buf.data(), static_cast<std::size_t>(got));
                continue;
            }
            if (got < 0 && (errno == EAGAIN || errno == EINTR))
                break;
            res.broken = true; // peer closed or failed
            return res;
        }
        now = Clock::now();
        while (decoder.next(payload)) {
            if (inflight.empty()) {
                res.broken = true; // a response nobody asked for
                return res;
            }
            const InFlight f = inflight.front();
            inflight.pop_front();
            const double lat = secondsBetween(f.due, now);
            res.latency.push_back(lat);
            if (payload != plan.expected[f.req] || lat > kTimeoutS)
                ++res.failed;
        }
        if (!inflight.empty()) {
            const double age = secondsBetween(inflight.front().due, now);
            if (age > 5 * kTimeoutS) {
                res.broken = true; // server stopped answering
                return res;
            }
            // A backlog this old already misses the limit: stop
            // sending so the probe backs off before anything times out.
            if (age > kAbortS && due < stop) {
                stop = now;
                res.aborted = true;
            }
        }
        // The generator polls while it has sends to make, yielding the
        // CPU to the server in between: a sleeping thread on this class
        // of host wakes up to milliseconds late, which would break the
        // schedule. Once every request is out it waits on the socket.
        if (due < stop) {
            sched_yield();
        } else {
            pollfd p{conn.fd(), POLLIN, 0};
            if (out_pos < out.size())
                p.events |= POLLOUT;
            ::poll(&p, 1, 1);
        }
    }
    return res;
}

/**
 * Pin the calling thread, and the threads it starts later, to the
 * first CPU this process may run on. The server's threads and the
 * generator then share one CPU: a request wakes the reactor on the
 * CPU that sent it instead of through another, possibly halted, CPU.
 * Across CPUs the reference p50 read 0.15-0.34 ms on identical runs
 * of this host; on one CPU the generator yields whenever it has
 * nothing due, so the reactor runs as soon as a request lands.
 */
void
pinToFirstCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            pthread_setaffinity_np(pthread_self(), sizeof one, &one);
            return;
        }
    }
}

} // namespace

RunResult
runServe(const Options &opts, Tracer &tracer)
{
    RunResult r;
    r.threads = "server: 1 reactor, 1 engine worker (idle: no batch "
                "reaches the parallel size), 1 acceptor (blocked); "
                "generator threads 1, connections 1; all on one CPU";

    // Inputs, prepared before set-up: the model file to serve, a pool
    // of held-out profile rows with ground-truth CPI, the request plan
    // and each request's exact expected response. The served model is
    // the one `hwsw save` makes with its default seeds, so every seed
    // serves the same model and only the traffic varies with --seed.
    const std::string model_path = opts.workDir + "/served.model";
    Tracer off(false);
    TrainOutput trained = trainAndSave(kCliSeeds, model_path, off);
    r.check(trained.saved, "serve: model file not written");
    const std::uint64_t family = inputFamily(opts.seed);
    const core::Dataset pool =
        trained.sampler->sample(kPoolPairsPerApp, mixSeed(family, 8));
    const Plan plan = makePlan(trained.model, pool, mixSeed(family, 9));
    trained.sampler.reset();

    // Set-up: load the model file, publish it, start the server and
    // connect, as `hwsw serve` + a client pay before the first
    // request. Repeated; the last server stays up for the run. The
    // previous server is stopped (its threads joined) before the
    // clock starts.
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<Conn> conn;
    std::shared_ptr<serve::ModelRegistry> registry;
    std::vector<double> setup_s, load_s;
    pinToFirstCpu();
    for (int rep = 0; rep < kSetupReps; ++rep) {
        conn.reset();
        server.reset();
        registry.reset();
        const auto t0 = Clock::now();
        core::HwSwModel model = core::loadModelFromFile(model_path);
        load_s.push_back(secondsBetween(t0, Clock::now()));
        registry = std::make_shared<serve::ModelRegistry>();
        registry->publish("default", std::move(model), "file");
        serve::ServerOptions sopts;
        sopts.reactors = 1;
        sopts.engine.threads = 1;
        server = std::make_unique<serve::Server>(registry, sopts);
        server->start();
        conn = std::make_unique<Conn>(server->port());
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    const double setup = median(setup_s);

    // The request rows come from the input family; the arrival
    // schedule and the first plan entry from the seed itself.
    Rng rng(mixSeed(opts.seed, 10));
    std::size_t next = opts.seed % kPlanSize;
    auto account = [&](const PhaseResult &p) {
        r.attempted += p.sent;
        r.failed += p.failed + (p.sent - p.latency.size());
        r.check(!p.broken, "serve: transport failure or stray "
                           "response");
        return !p.broken;
    };

    // Warm-up, then the reference phase.
    bool alive = account(runPhase(*conn, plan, kRefRate, kWarmShare * opts.seconds,
                                  rng, next));
    PhaseResult ref;
    {
        Scoped span(tracer, "serve.reference");
        ref = runPhase(*conn, plan, kRefRate, kRefShare * opts.seconds, rng,
                       next);
    }
    alive = alive && account(ref);
    const serve::VerbSummary server_ref =
        server->latency().summary(serve::Verb::Batch);

    // Stepped rate search.
    const double probe_s = kProbeShare * opts.seconds;
    double pass = 0.0, miss = 0.0;
    std::vector<double> probe_rates;
    auto probe = [&](double rate) {
        Scoped span(tracer, "serve.probe");
        const PhaseResult p = runPhase(*conn, plan, rate, probe_s, rng, next);
        alive = alive && account(p);
        probe_rates.push_back(rate);
        return alive && p.failed == 0 && !p.aborted &&
            1e3 * quantile(p.latency, kProbeTailQ) <= kLimitMs;
    };
    for (double rate = kRefRate; alive && rate < kMaxRate;
         rate *= kRateStep) {
        if (!probe(rate)) {
            miss = rate;
            break;
        }
        pass = rate;
    }
    for (int i = 0; i < kBisections && alive && pass > 0.0 && miss > 0.0;
         ++i) {
        const double mid = std::sqrt(pass * miss);
        (probe(mid) ? pass : miss) = mid;
    }
    r.check(pass > 0.0, "serve: the reference rate misses the limit");

    // Accuracy of what was served: the responses equal the model's
    // predictions bit for bit (checked per response), so the error
    // against ground truth is the served model's held-out error.
    const HeldOutError served =
        heldOutError(trained.model, trained.train, pool);

    if (!opts.trace) {
        r.add("setup_s", setup, "s");
        r.add("latency_p50_ms", 1e3 * median(ref.latency), "ms");
        r.add("latency_tail_ms", 1e3 * windowedTail(ref.latency, kTailWindow),
              "ms");
        r.add("max_rate_per_s", pass, "1/s");
        r.add("model_err_pct", 100.0 * served.model, "%");
        r.add("speedup_x", served.trainingMean / served.model, "x");
        r.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        // Layers that run only inside the server: call their public
        // functions directly on the same requests.
        std::size_t total_rows = 0;
        for (const auto &rows : plan.rows)
            total_rows += rows.size();
        const double n_req = static_cast<double>(kPlanSize);

        auto t0 = Clock::now();
        for (std::size_t q = 0; q < kPlanSize; ++q) {
            Scoped span(tracer, "serve.engine");
            const auto outcome =
                server->engine().predict("default", plan.rows[q]);
            r.check(outcome.predictions.size() == plan.rows[q].size(),
                    "serve: engine answered a short batch");
        }
        const double engine_s = secondsBetween(t0, Clock::now());

        std::vector<double> row_scratch;
        core::ProfileRecord rec;
        t0 = Clock::now();
        double sink = 0.0;
        for (const auto &rows : plan.rows) {
            Scoped span(tracer, "core.predict");
            for (const auto &row : rows) {
                rec.vars = row;
                sink += trained.model.predict(rec, row_scratch);
            }
        }
        const double predict_s = secondsBetween(t0, Clock::now());
        r.check(std::isfinite(sink), "serve: non-finite prediction");

        std::string stream;
        for (const auto &f : plan.frames)
            stream += f;
        t0 = Clock::now();
        std::size_t frames = 0;
        {
            Scoped span(tracer, "serve.frame");
            serve::FrameDecoder dec;
            std::string payload;
            for (std::size_t off = 0; off < stream.size(); off += 4096) {
                dec.feed(stream.data() + off,
                         std::min<std::size_t>(4096, stream.size() - off));
                while (dec.next(payload))
                    ++frames;
            }
        }
        const double frame_s = secondsBetween(t0, Clock::now());
        r.check(frames == kPlanSize, "serve: frame decoder lost frames");

        t0 = Clock::now();
        std::size_t parsed = 0;
        for (const std::string &frame : plan.frames) {
            const std::string_view payload =
                std::string_view(frame).substr(4); // past the length
            Scoped span(tracer, "serve.parse");
            auto [line, rest] = serve::splitFirstLine(payload);
            (void)serve::splitTokens(line);
            while (!rest.empty()) {
                const auto [row_line, tail] = serve::splitFirstLine(rest);
                rest = tail;
                parsed += serve::parseRow(serve::splitTokens(row_line))
                              .has_value();
            }
        }
        const double parse_s = secondsBetween(t0, Clock::now());
        r.check(parsed == total_rows, "serve: rows failed to parse");

        t0 = Clock::now();
        std::size_t encoded = 0;
        for (std::size_t q = 0; q < kPlanSize; ++q) {
            Scoped span(tracer, "serve.encode");
            std::string response = "ok 1";
            for (const auto &row : plan.rows[q]) {
                rec.vars = row;
                response += ' ';
                response += serve::formatDouble(
                    trained.model.predict(rec, row_scratch));
            }
            encoded += response.size();
        }
        // The encode replica also predicts; charge only formatting.
        const double encode_s =
            secondsBetween(t0, Clock::now()) - predict_s;
        r.check(encoded > 0, "serve: nothing encoded");

        const double client_p50_ms = 1e3 * median(ref.latency);
        r.add("serve.engine_us_per_row",
              1e6 * engine_s / static_cast<double>(total_rows), "us");
        r.add("core.predict_us",
              1e6 * predict_s / static_cast<double>(total_rows), "us");
        r.add("serve.frame_us", 1e6 * frame_s / n_req, "us");
        r.add("serve.parse_us", 1e6 * parse_s / n_req, "us");
        r.add("serve.encode_us", 1e6 * std::max(0.0, encode_s) / n_req,
              "us");
        r.add("serve.server_ms", 1e3 * server_ref.p50, "ms");
        r.add("serve.wait_ms", client_p50_ms - 1e3 * server_ref.p50, "ms");
        r.add("serve.gen_late_ms", 1e3 * quantile(ref.late, 0.99), "ms");
        r.add("core.serialize_ms", 1e3 * median(load_s), "ms");
    }

    std::printf("serve: %llu requests (%llu failed), reference %.0f/s: "
                "%zu samples, p50 %.3f ms, tail %.3f ms (median of "
                "per-%zu-request p99s); max rate %.0f/s after %zu "
                "probes; served error %.1f%%\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), kRefRate,
                ref.latency.size(), 1e3 * median(ref.latency),
                1e3 * windowedTail(ref.latency, kTailWindow), kTailWindow,
                pass, probe_rates.size(), 100.0 * served.model);
    conn.reset();
    server->stop();
    return r;
}

} // namespace perfbench
