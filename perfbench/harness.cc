/**
 * @file
 * perfbench_harness — the benchmark's in-process tool (see README.md).
 *
 *   perfbench_harness gen <preset> <seed> <instructions> <out.acictrace>
 *   perfbench_harness info
 *   perfbench_harness setup batch <trace.acictrace>...
 *   perfbench_harness setup serve <stream.acis> <schemes>
 *   perfbench_harness traced <batch|serve> <threads> <schemes>
 *                     <reference-dump> <spans.json> <trace.acictrace>...
 *
 * `gen` writes one synthetic trace of a catalog preset, generated
 * with the preset's own seed plus <seed> (so seed 0 is the preset
 * exactly), and prints the preset's paper-reported MPKI. `info`
 * prints the tag-scan kernel the build selected. `setup` times, in a
 * fresh process, the work a user waits for before the first simulated
 * instruction and prints the seconds. `traced` reproduces a workload
 * through the simulator's public API with a span around every call
 * into a layer, prints the per-layer metrics as one JSON object, and
 * writes the spans to a file. Every trace file `X.acictrace` passed to
 * `traced` must have its framed twin `X.acis` beside it.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/tagscan.hh"
#include "driver/emitters.hh"
#include "driver/experiment.hh"
#include "driver/serve.hh"
#include "driver/thread_pool.hh"
#include "frontend/bundle.hh"
#include "frontend/tage.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "trace/catalog.hh"
#include "trace/io.hh"
#include "trace/memory.hh"
#include "trace/streaming.hh"
#include "trace/synthetic.hh"

using namespace acic;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * In-memory span recorder. Spans are opened and closed on the main
 * thread only, strictly nested, so a span's children never overlap
 * and self time = duration - sum of the children's durations.
 */
class Tracer
{
  public:
    int open(const std::string &name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, now(), 0.0, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    /** Close span @p id (the innermost open one); @return seconds. */
    double close(int id)
    {
        spans_[id].end = now();
        stack_.pop_back();
        return spans_[id].end - spans_[id].start;
    }

    void write(std::ostream &out) const
    {
        char buf[64];
        out << "{\"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            out << "  {\"id\": " << i << ", \"name\": \""
                << jsonEscape(s.name) << "\", ";
            std::snprintf(buf, sizeof buf, "%.9f", s.start);
            out << "\"start_s\": " << buf << ", ";
            std::snprintf(buf, sizeof buf, "%.9f", s.end);
            out << "\"end_s\": " << buf << ", \"parent\": " << s.parent
                << '}' << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
    }

  private:
    struct SpanRec
    {
        std::string name;
        double start;
        double end;
        int parent;
    };

    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
};

Tracer gTracer;

/** Scoped span; end() closes it early and returns its seconds. */
class Span
{
  public:
    explicit Span(const std::string &name) : id_(gTracer.open(name)) {}
    ~Span()
    {
        if (!closed_)
            gTracer.close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    double end()
    {
        closed_ = true;
        return gTracer.close(id_);
    }

  private:
    int id_;
    bool closed_ = false;
};

template <typename Fn>
double
timed(const std::string &name, Fn &&fn)
{
    Span span(name);
    fn();
    return span.end();
}

/** Keeps replay loops observable so the optimizer cannot drop them. */
volatile std::uint64_t gSink = 0;

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Nearest-rank percentile, @p p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(std::max<std::size_t>(rank, 1), v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

std::string
acisPath(const std::string &trace)
{
    const std::string suffix = TraceFormat::suffix();
    if (trace.size() < suffix.size() ||
        trace.compare(trace.size() - suffix.size(), suffix.size(),
                      suffix) != 0) {
        std::fprintf(stderr, "not a %s file: %s\n", suffix.c_str(),
                     trace.c_str());
        std::exit(2);
    }
    return trace.substr(0, trace.size() - suffix.size()) + ".acis";
}

std::uint64_t
warmupOf(std::uint64_t total, const SimConfig &config)
{
    return static_cast<std::uint64_t>(static_cast<double>(total) *
                                      config.warmupFraction);
}

/**
 * Compares in-process results with the reference `--dump-stats`
 * sections ("# workload=W scheme=S" header + golden dump body).
 */
class DumpCheck
{
  public:
    explicit DumpCheck(const std::string &path)
    {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "cannot read reference %s\n",
                         path.c_str());
            std::exit(1);
        }
        std::string line, header;
        while (std::getline(in, line)) {
            if (line.rfind("# workload=", 0) == 0)
                header = line;
            else if (!header.empty())
                sections_[header] += line + '\n';
        }
    }

    void check(const std::string &workload, const SchemeSpec &scheme,
               const SimResult &result)
    {
        ++attempted;
        const std::string header =
            "# workload=" + workload + " scheme=" + scheme.toString();
        std::ostringstream body;
        writeGoldenDump(body, result);
        const auto it = sections_.find(header);
        if (it == sections_.end() || it->second != body.str()) {
            ++failed;
            std::fprintf(stderr, "mismatch against reference: %s\n",
                         header.c_str());
        }
    }

    int attempted = 0;
    int failed = 0;

  private:
    std::map<std::string, std::string> sections_;
};

/** One (trace, scheme) simulation with its phase timings. */
struct CellRun
{
    SchemeSpec scheme;
    double warmS = 0.0;
    double measureS = 0.0;
    Cycle cycles = 0;    ///< cumulative simulated cycles (warm+measure)
    std::uint64_t retired = 0;
    SimResult result;
};

/** What SharedWorkload::run does, one phase per span. */
CellRun
runCellTraced(const SharedWorkload &w, const SchemeSpec &scheme,
              const SimConfig &config)
{
    CellRun cell;
    cell.scheme = scheme;
    Span span("cell");
    MemoryTraceSource cursor = w.source();
    const std::uint64_t total = cursor.length();
    const std::uint64_t warm = warmupOf(total, config);
    std::unique_ptr<IcacheOrg> org;
    std::unique_ptr<SimEngine> engine;
    timed("sim.engine.construct", [&] {
        org = makeScheme(scheme, config);
        engine = std::make_unique<SimEngine>(
            config, cursor, *org,
            w.oracleEnabled() ? &w.oracle() : nullptr);
    });
    cell.warmS = timed("sim.engine.warmup", [&] { engine->warmUp(warm); });
    cell.measureS = timed("sim.engine.measure",
                          [&] { engine->measure(total - warm); });
    timed("sim.engine.finish", [&] { cell.result = engine->finish(); });
    cell.cycles = engine->cycles();
    cell.retired = engine->retired();
    return cell;
}

/** Resident engines over one framed stream, as `acic_run serve`
 *  builds them: stream open, tee, one oracle-free engine per scheme. */
struct ServeEngines
{
    ServeEngines(const std::string &acis,
                 const std::vector<SchemeSpec> &schemes,
                 const SimConfig &config)
        : source(StreamingTraceSource::openPath(acis)),
          tee(*source, static_cast<unsigned>(schemes.size()))
    {
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            orgs.push_back(makeScheme(schemes[i], config));
            engines.push_back(std::make_unique<SimEngine>(
                config, tee.cursor(static_cast<unsigned>(i)), *orgs[i],
                nullptr));
        }
    }

    std::unique_ptr<StreamingTraceSource> source;
    StreamTee tee;
    std::vector<std::unique_ptr<IcacheOrg>> orgs;
    std::vector<std::unique_ptr<SimEngine>> engines;
};

/**
 * The serve lockstep loop (runLockstepRounds' rounds, same slack and
 * clipping) with each engine's warmUp/measure timed, so per-engine
 * busy seconds are visible at any thread count.
 */
std::vector<CellRun>
lockstepCells(ServeEngines &set, const std::vector<SchemeSpec> &schemes,
              const SimConfig &config, unsigned threads,
              std::uint64_t warmup, std::uint64_t step)
{
    const std::uint64_t slack =
        static_cast<std::uint64_t>(config.ftqEntries) *
            config.fetchWidth +
        config.decodeQueueEntries + InstBatch::kCapacity + 8;
    const std::size_t n = set.engines.size();
    std::vector<CellRun> cells(n);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads);
    std::vector<std::exception_ptr> errors(n);
    const auto round = [&](const auto &fn) {
        if (!pool) {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            pool->submit([&fn, &errors, i] {
                try {
                    fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        pool->wait();
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
    };
    const auto secondsSince = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    StreamTee &tee = set.tee;
    std::uint64_t avail = tee.ensureBuffered(warmup + slack);
    const std::uint64_t warm = warmup < avail ? warmup : avail;
    round([&](std::size_t i) {
        const auto t0 = Clock::now();
        set.engines[i]->warmUp(warm);
        cells[i].warmS = secondsSince(t0);
    });
    std::uint64_t target = warm;
    for (;;) {
        const std::uint64_t goal = target + step;
        avail = tee.ensureBuffered(goal + slack);
        const std::uint64_t next = goal < avail ? goal : avail;
        if (next <= target) {
            if (tee.exhausted())
                break;
            continue;
        }
        const std::uint64_t delta = next - target;
        round([&](std::size_t i) {
            const auto t0 = Clock::now();
            set.engines[i]->measure(delta);
            cells[i].measureS += secondsSince(t0);
        });
        target = next;
        tee.trim();
        if (tee.exhausted() && target >= tee.bufferedEnd())
            break;
    }
    for (std::size_t i = 0; i < n; ++i) {
        cells[i].scheme = schemes[i];
        cells[i].cycles = set.engines[i]->cycles();
        cells[i].retired = set.engines[i]->retired();
        cells[i].result = set.engines[i]->finish();
    }
    return cells;
}

/** runLockstepRounds with window = step: round durations from the
 *  onWindow timestamps, plus the whole call's wall. */
struct RoundsRun
{
    double wall = 0.0;
    std::vector<double> roundMs;
};

RoundsRun
lockstepRounds(const std::string &acis,
               const std::vector<SchemeSpec> &schemes,
               const SimConfig &config, unsigned threads,
               std::uint64_t warmup, std::uint64_t step,
               const std::string &span_name)
{
    ServeEngines set(acis, schemes, config);
    LockstepOptions options;
    options.warmup = warmup;
    options.step = step;
    options.window = step;
    options.threads = threads;
    std::vector<Clock::time_point> stamps;
    RoundsRun out;
    Span span(span_name);
    runLockstepRounds(
        set.tee, set.engines, config, options,
        [&stamps](std::uint64_t) { stamps.push_back(Clock::now()); },
        nullptr, set.source.get());
    out.wall = span.end();
    for (std::size_t i = 1; i < stamps.size(); ++i)
        out.roundMs.push_back(
            std::chrono::duration<double, std::milli>(stamps[i] -
                                                      stamps[i - 1])
                .count());
    return out;
}

/** One demand access of the fetch stream (org / hierarchy replays). */
struct Demand
{
    Addr pc = 0;
    BlockAddr blk = 0;
    std::uint64_t nextUse = kNeverAgain;
};

/** Metric name -> (value, unit), emitted as the harness's JSON. */
class Metrics
{
  public:
    void put(const std::string &name, double value, const char *unit)
    {
        values_[name] = {value, unit};
    }

    void write(std::ostream &out, int attempted, int failed,
               double reproduce_wall) const
    {
        char buf[64];
        out << "{\"attempted\": " << attempted
            << ", \"failed\": " << failed;
        std::snprintf(buf, sizeof buf, "%.17g", reproduce_wall);
        out << ", \"reproduce_wall_s\": " << buf << ", \"metrics\": {";
        bool first = true;
        for (const auto &[name, vu] : values_) {
            std::snprintf(buf, sizeof buf, "%.17g", vu.first);
            out << (first ? "" : ", ") << '"' << name
                << "\": {\"value\": " << buf << ", \"unit\": \""
                << vu.second << "\"}";
            first = false;
        }
        out << "}}\n";
    }

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Per-scheme sums across a workload's traces. */
struct SchemeTotals
{
    double warmS = 0.0;
    double measureS = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::vector<SimResult> parts;
};

/** Schemes whose per-scheme metrics every workload reports. */
const char *const kReportedSchemes[] = {"lru", "acic"};

void
putEngineMetrics(Metrics &m,
                 const std::map<std::string, SchemeTotals> &totals)
{
    for (const char *key : kReportedSchemes) {
        const auto it = totals.find(key);
        if (it == totals.end()) {
            std::fprintf(stderr, "workload lacks scheme %s\n", key);
            std::exit(2);
        }
        const SchemeTotals &t = it->second;
        const SimResult r = mergeSimResults(t.parts);
        const std::string s = key;
        const double busy = t.warmS + t.measureS;
        const double insts = static_cast<double>(r.instructions);
        m.put("sim.engine.warmup_s." + s, t.warmS, "s");
        m.put("sim.engine.measure_s." + s, t.measureS, "s");
        m.put("sim.engine.ns_per_inst." + s,
              ratio(busy * 1e9, static_cast<double>(t.retired)), "ns");
        m.put("sim.engine.ns_per_cycle." + s,
              ratio(busy * 1e9, static_cast<double>(t.cycles)), "ns");
        m.put("sim.engine.cycles." + s, static_cast<double>(t.cycles),
              "count");
        m.put("frontend.prefetch.issued_pki." + s,
              ratio(1000.0 * static_cast<double>(r.prefetchesIssued),
                    insts),
              "count/kinst");
        m.put("frontend.prefetch.late_frac." + s,
              ratio(static_cast<double>(r.latePrefetches),
                    static_cast<double>(r.prefetchesIssued)),
              "ratio");
        m.put("cache.l1i_mpki." + s, r.mpki(), "count/kinst");
        m.put("cache.l2_pki." + s,
              ratio(1000.0 * static_cast<double>(r.l2Accesses), insts),
              "count/kinst");
        m.put("cache.dram_pki." + s,
              ratio(1000.0 * static_cast<double>(r.dramAccesses), insts),
              "count/kinst");
        if (s == "lru") {
            m.put("frontend.mispredicts_pki",
                  ratio(1000.0 *
                            static_cast<double>(r.branchMispredicts),
                        insts),
                  "count/kinst");
            m.put("frontend.btb_misses_pki",
                  ratio(1000.0 * static_cast<double>(r.btbMisses),
                        insts),
                  "count/kinst");
        } else {
            const StatSet &org = r.orgStats;
            m.put("core.filter_hit_frac.acic",
                  ratio(static_cast<double>(
                            org.get("filtered.filter_hit")),
                        static_cast<double>(r.demandAccesses)),
                  "ratio");
            m.put("core.admit_frac.acic",
                  ratio(static_cast<double>(
                            org.get("filtered.victims_admitted")),
                        static_cast<double>(
                            org.get("filtered.filter_victims"))),
                  "ratio");
            m.put("core.decision_accuracy.acic",
                  ratio(static_cast<double>(
                            org.get("acic.decisions_correct")),
                        static_cast<double>(org.get("acic.decisions"))),
                  "ratio");
        }
    }
}

void
addCell(std::map<std::string, SchemeTotals> &totals, const CellRun &c)
{
    SchemeTotals &t = totals[c.scheme.toString()];
    t.warmS += c.warmS;
    t.measureS += c.measureS;
    t.cycles += c.cycles;
    t.retired += c.retired;
    t.parts.push_back(c.result);
}

/**
 * Trace-layer and component replays over one trace, shared by both
 * workload kinds: file decode, stream ingest, oracle build, bundle
 * walk, TAGE, organization access/fill/tick, and L2/L3 service.
 */
struct LayerTotals
{
    double loadS = 0.0;
    double decodeS = 0.0;
    double ingestS = 0.0;
    double oracleS = 0.0;
    double bundleS = 0.0;
    double tageS = 0.0;
    double hierarchyS = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t streamed = 0;
    std::uint64_t branches = 0;
    std::uint64_t misses = 0;
    std::map<std::string, double> orgS;
    std::map<std::string, std::uint64_t> orgAccesses;
};

std::shared_ptr<SharedWorkload>
replayLayers(const std::string &trace, const SimConfig &config,
             LayerTotals &lt)
{
    std::shared_ptr<SharedWorkload> w;
    lt.loadS += timed("trace.load", [&] {
        FileTraceSource file(trace);
        w = std::make_shared<SharedWorkload>(file, config);
    });
    lt.insts += w->instructions();

    lt.decodeS += timed("trace.decode", [&] {
        FileTraceSource file(trace);
        InstBatch batch;
        std::uint64_t n = 0;
        while (file.decodeBatch(batch) != 0)
            n += batch.count;
        gSink = gSink + n;
    });

    lt.ingestS += timed("trace.stream.ingest", [&] {
        auto source = StreamingTraceSource::openPath(acisPath(trace));
        StreamTee tee(*source, 1);
        StreamTee::Cursor &cursor = tee.cursor(0);
        std::uint64_t n = 0, since_trim = 0, got = 0;
        while (const TraceInst *run = cursor.acquireRun(4096, got)) {
            if (got == 0)
                break;
            n += got;
            gSink = gSink ^ run[got - 1].pc;
            if ((since_trim += got) >= 65536) {
                tee.trim();
                since_trim = 0;
            }
        }
        lt.streamed += n;
    });

    lt.oracleS += timed("sim.oracle", [&] { w->oracle(); });

    lt.bundleS += timed("frontend.bundle", [&] {
        MemoryTraceSource cursor = w->source();
        BundleWalker walker(cursor, config.fetchWidth);
        Bundle bundle;
        std::uint64_t n = 0;
        while (walker.next(bundle))
            ++n;
        gSink = gSink + n;
    });

    std::vector<std::pair<Addr, bool>> conds;
    std::vector<Demand> demands;
    {
        Span prep("replay.prepare");
        for (const TraceInst &inst : *w->source().image())
            if (inst.kind == BranchKind::Cond)
                conds.emplace_back(inst.pc, inst.taken);
        MemoryTraceSource cursor = w->source();
        BundleWalker walker(cursor, config.fetchWidth);
        const DemandOracle &oracle = w->oracle();
        Bundle bundle;
        for (std::uint64_t i = 0; walker.next(bundle); ++i)
            demands.push_back(
                {bundle.pc, bundle.blk,
                 i < oracle.length() ? oracle.nextUseAt(i) : kNeverAgain});
    }
    lt.branches += conds.size();

    lt.tageS += timed("frontend.tage", [&] {
        Tage tage;
        for (const auto &[pc, taken] : conds) {
            tage.predict(pc);
            tage.update(pc, taken);
        }
        gSink = gSink + tage.mispredicts();
    });

    std::vector<Demand> lru_misses;
    for (const char *key : kReportedSchemes) {
        const SchemeSpec scheme = parseScheme(key);
        std::unique_ptr<IcacheOrg> org = makeScheme(scheme, config);
        const bool collect = std::string(key) == "lru";
        lt.orgS[key] += timed(std::string("org.replay.") + key, [&] {
            for (std::uint64_t i = 0; i < demands.size(); ++i) {
                const Demand &d = demands[i];
                CacheAccess access;
                access.pc = d.pc;
                access.blk = d.blk;
                access.seq = i;
                access.nextUse = d.nextUse;
                access.cycle = i;
                org->maybeTick(i);
                if (!org->access(access)) {
                    if (collect)
                        lru_misses.push_back(d);
                    org->fill(access);
                }
            }
        });
        lt.orgAccesses[key] += demands.size();
    }
    lt.misses += lru_misses.size();

    lt.hierarchyS += timed("cache.hierarchy", [&] {
        MemoryHierarchy hierarchy(config.hierarchy);
        Cycle latency = 0;
        for (const Demand &d : lru_misses)
            latency += hierarchy.serviceMiss(d.blk, d.pc);
        gSink = gSink + latency;
    });
    return w;
}

void
putLayerMetrics(Metrics &m, const LayerTotals &lt)
{
    const double insts = static_cast<double>(lt.insts);
    m.put("trace.load_s", lt.loadS, "s");
    m.put("trace.decode_ns_per_inst", ratio(lt.decodeS * 1e9, insts),
          "ns");
    m.put("trace.image_mb", insts * sizeof(TraceInst) / 1e6, "MB");
    m.put("trace.stream.ingest_ns_per_inst",
          ratio(lt.ingestS * 1e9, static_cast<double>(lt.streamed)),
          "ns");
    m.put("sim.oracle_s", lt.oracleS, "s");
    m.put("frontend.bundle_ns_per_inst", ratio(lt.bundleS * 1e9, insts),
          "ns");
    m.put("frontend.tage_ns_per_branch",
          ratio(lt.tageS * 1e9, static_cast<double>(lt.branches)), "ns");
    for (const auto &[key, seconds] : lt.orgS)
        m.put("org.ns_per_access." + key,
              ratio(seconds * 1e9,
                    static_cast<double>(lt.orgAccesses.at(key))),
              "ns");
    m.put("cache.hierarchy.ns_per_miss",
          ratio(lt.hierarchyS * 1e9, static_cast<double>(lt.misses)),
          "ns");
}

void
putDriverMetrics(Metrics &m, const std::vector<double> &cell_s,
                 const std::vector<double> &serial_cell_s,
                 unsigned threads, double wall)
{
    m.put("driver.cell_s.p50", median(cell_s), "s");
    m.put("driver.cell_s.max", percentile(cell_s, 100.0), "s");
    m.put("driver.cell_inflation",
          ratio(median(cell_s), median(serial_cell_s)), "ratio");
    m.put("driver.pool_busy_frac", ratio(sum(cell_s), threads * wall),
          "ratio");
}

void
putRoundMetrics(Metrics &m, const std::vector<RoundsRun> &at_threads,
                const std::vector<RoundsRun> &serial)
{
    std::vector<double> rounds;
    double wall = 0.0, serial_wall = 0.0;
    for (const RoundsRun &r : at_threads) {
        rounds.insert(rounds.end(), r.roundMs.begin(), r.roundMs.end());
        wall += r.wall;
    }
    for (const RoundsRun &r : serial)
        serial_wall += r.wall;
    m.put("driver.serve.round_ms.p50", percentile(rounds, 50.0), "ms");
    m.put("driver.serve.round_ms.p90", percentile(rounds, 90.0), "ms");
    m.put("driver.serve.parallel_speedup", ratio(serial_wall, wall),
          "ratio");
}

int
cmdGen(int argc, char **argv)
{
    if (argc != 6) {
        std::fprintf(stderr, "usage: gen <preset> <seed> <instructions> "
                             "<out.acictrace>\n");
        return 2;
    }
    WorkloadParams params = Workloads::byName(argv[2]);
    params.seed += std::strtoull(argv[3], nullptr, 10);
    params.instructions = std::strtoull(argv[4], nullptr, 10);
    SyntheticWorkload trace(params);
    recordTrace(trace, argv[5]);
    std::printf("%.17g\n", params.paperMpki);
    return 0;
}

int
cmdSetup(int argc, char **argv)
{
    const SimConfig config;
    const std::string kind = argc > 2 ? argv[2] : "";
    double seconds = 0.0;
    if (kind == "batch" && argc > 3) {
        // SharedWorkload construction from the file plus the first
        // oracle(): everything a batch cell waits for.
        for (int i = 3; i < argc; ++i)
            seconds += timed("setup", [&] {
                FileTraceSource file(argv[i]);
                SharedWorkload w(file, config);
                w.oracle();
            });
    } else if (kind == "serve" && argc == 5) {
        const auto schemes = parseSchemeList(argv[4]);
        std::unique_ptr<ServeEngines> set;
        seconds = timed("setup", [&] {
            set = std::make_unique<ServeEngines>(argv[3], schemes, config);
        });
    } else {
        std::fprintf(stderr, "usage: setup batch <trace>... | "
                             "setup serve <stream.acis> <schemes>\n");
        return 2;
    }
    std::printf("%.9f\n", seconds);
    return 0;
}

/** serve's default lockstep round, in instructions. */
constexpr std::uint64_t kStep = 65'536;

/** What the timed passes of a traced run hand to the metrics. */
struct Reproduction
{
    std::map<std::string, SchemeTotals> totals; ///< phase-timed cells
    std::vector<double> serialCellS; ///< cell seconds, one at a time
    std::vector<double> cellS;       ///< cell seconds at the threads
    double parallelWall = 0.0;       ///< wall of the threaded pass
    double emitS = 0.0;
    /** In-process twin of the untraced end-to-end run. */
    double reproduceWall = 0.0;
};

void
writeCell(std::ostream &out, const std::string &workload,
          const SchemeSpec &scheme, const SimResult &result)
{
    out << "# workload=" << workload << " scheme=" << scheme.toString()
        << '\n';
    writeGoldenDump(out, result);
}

/**
 * Batch workloads: every cell phase-timed one at a time, then the
 * matrix through ExperimentDriver on one thread and on the workload's
 * threads, then the emit.
 */
Reproduction
traceBatch(const std::vector<std::shared_ptr<SharedWorkload>> &workloads,
           const std::vector<std::string> &traces,
           const std::vector<SchemeSpec> &schemes, unsigned threads,
           const SimConfig &config, DumpCheck &check)
{
    Reproduction r;
    {
        Span span("cells.serial");
        for (const auto &w : workloads)
            for (const SchemeSpec &scheme : schemes) {
                const CellRun cell = runCellTraced(*w, scheme, config);
                check.check(w->name(), scheme, cell.result);
                addCell(r.totals, cell);
            }
    }
    ExperimentSpec spec;
    for (std::size_t i = 0; i < traces.size(); ++i)
        spec.workloads.push_back(WorkloadEntry::traceFile(
            workloads[i]->name(), traces[i],
            workloads[i]->instructions()));
    spec.schemes = schemes;
    const auto runDriver = [&](unsigned n, std::vector<double> &cell_s,
                               const char *span_name) {
        spec.threads = n;
        std::vector<CellResult> cells;
        const double wall =
            timed(span_name, [&] { cells = ExperimentDriver(spec).run(); });
        for (const CellResult &cell : cells) {
            check.check(spec.workloads[cell.workloadIndex].name(),
                        spec.schemes[cell.schemeIndex], cell.result);
            cell_s.push_back(cell.hostSeconds);
        }
        return std::make_pair(wall, cells);
    };
    // A cell's hostSeconds includes the lazy oracle build when it is
    // its trace's first, so the one-at-a-time baseline is the same
    // driver on one thread rather than the phase-timed cells above.
    runDriver(1, r.serialCellS, "driver.run.serial");
    Span reproduce("reproduce");
    const auto run = runDriver(threads, r.cellS, "driver.run");
    const std::vector<CellResult> &cells = run.second;
    r.parallelWall = run.first;
    r.emitS = timed("driver.emit", [&] {
        std::ostringstream out;
        for (const CellResult &cell : cells)
            writeCell(out, spec.workloads[cell.workloadIndex].name(),
                      spec.schemes[cell.schemeIndex], cell.result);
        writeResultsJson(out, spec, cells);
        gSink = gSink + out.str().size();
    });
    r.reproduceWall = reproduce.end();
    return r;
}

/**
 * Serve workloads: the lockstep rounds with one worker (cells one at
 * a time), then set-up, rounds on the workload's threads, and emit.
 */
Reproduction
traceServe(const SharedWorkload &w, const std::string &acis,
           const std::vector<SchemeSpec> &schemes, unsigned threads,
           const SimConfig &config, DumpCheck &check)
{
    Reproduction r;
    const std::uint64_t warm = warmupOf(w.instructions(), config);
    {
        Span span("cells.serial");
        ServeEngines set(acis, schemes, config);
        for (const CellRun &cell :
             lockstepCells(set, schemes, config, 1, warm, kStep)) {
            check.check(w.name(), cell.scheme, cell.result);
            addCell(r.totals, cell);
            r.serialCellS.push_back(cell.warmS + cell.measureS);
        }
    }
    Span reproduce("reproduce");
    std::unique_ptr<ServeEngines> set;
    timed("serve.setup", [&] {
        set = std::make_unique<ServeEngines>(acis, schemes, config);
    });
    std::vector<CellRun> cells;
    r.parallelWall = timed("serve.rounds", [&] {
        cells = lockstepCells(*set, schemes, config, threads, warm, kStep);
    });
    r.emitS = timed("driver.emit", [&] {
        std::ostringstream out;
        for (const CellRun &cell : cells)
            writeCell(out, cell.result.workload, cell.scheme, cell.result);
        gSink = gSink + out.str().size();
    });
    r.reproduceWall = reproduce.end();
    for (const CellRun &cell : cells) {
        check.check(w.name(), cell.scheme, cell.result);
        r.cellS.push_back(cell.warmS + cell.measureS);
    }
    return r;
}

int
cmdTraced(int argc, char **argv)
{
    if (argc < 8) {
        std::fprintf(stderr,
                     "usage: traced <batch|serve> <threads> <schemes> "
                     "<reference-dump> <spans.json> <trace>...\n");
        return 2;
    }
    const std::string kind = argv[2];
    const unsigned threads =
        static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10));
    const std::vector<SchemeSpec> schemes = parseSchemeList(argv[4]);
    DumpCheck check(argv[5]);
    const std::string spans_path = argv[6];
    const std::vector<std::string> traces(argv + 7, argv + argc);
    if ((kind != "batch" && kind != "serve") || threads == 0 ||
        (kind == "serve" && traces.size() != 1)) {
        std::fprintf(stderr, "traced: bad arguments\n");
        return 2;
    }
    const bool serve = kind == "serve";
    const SimConfig config;
    Metrics m;

    Span root("run");
    LayerTotals layers;
    std::vector<std::shared_ptr<SharedWorkload>> workloads;
    {
        Span span("layers");
        for (const std::string &trace : traces)
            workloads.push_back(replayLayers(trace, config, layers));
    }
    putLayerMetrics(m, layers);
    // The oracle builds the measured path performs: one per batch
    // trace; a single-pass stream cannot build one.
    m.put("sim.oracle_builds",
          serve ? 0.0 : static_cast<double>(traces.size()), "count");

    const Reproduction r =
        serve ? traceServe(*workloads.front(), acisPath(traces.front()),
                           schemes, threads, config, check)
              : traceBatch(workloads, traces, schemes, threads, config,
                           check);
    putEngineMetrics(m, r.totals);
    putDriverMetrics(m, r.cellS, r.serialCellS, threads, r.parallelWall);
    m.put("driver.emit_s", r.emitS, "s");

    std::vector<RoundsRun> at_threads, serial;
    {
        Span span("lockstep");
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const std::uint64_t w =
                warmupOf(workloads[i]->instructions(), config);
            at_threads.push_back(
                lockstepRounds(acisPath(traces[i]), schemes, config,
                               threads, w, kStep, "driver.lockstep.n"));
            serial.push_back(lockstepRounds(acisPath(traces[i]), schemes,
                                            config, 1, w, kStep,
                                            "driver.lockstep.1"));
        }
    }
    putRoundMetrics(m, at_threads, serial);
    root.end();

    std::ofstream spans(spans_path);
    gTracer.write(spans);
    if (!spans) {
        std::fprintf(stderr, "failed writing %s\n", spans_path.c_str());
        return 1;
    }
    m.write(std::cout, check.attempted, check.failed, r.reproduceWall);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    try {
        if (command == "gen")
            return cmdGen(argc, argv);
        if (command == "info") {
            std::printf("%s\n", tagscan::activeIsa());
            return 0;
        }
        if (command == "setup")
            return cmdSetup(argc, argv);
        if (command == "traced")
            return cmdTraced(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", command.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr,
                 "usage: perfbench_harness gen|info|setup|traced ...\n");
    return 2;
}
