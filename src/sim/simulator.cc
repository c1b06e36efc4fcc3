#include "sim/simulator.hh"

#include "sim/coherent.hh"
#include "sim/system.hh"

namespace cachetime
{

SimResult
Simulator::run(const Trace &trace)
{
    TraceRefSource source(trace);
    return run(source);
}

SimResult
Simulator::run(RefSource &source)
{
    ChunkFeeder feeder(source);
    beginRun(source);
    while (ChunkFeeder::Span span = feeder.next())
        feedChunk(span.data, span.size);
    return endRun();
}

std::unique_ptr<Simulator>
makeSimulator(const SystemConfig &config)
{
    if (config.coherent())
        return std::make_unique<CoherentSystem>(config);
    return std::make_unique<System>(config);
}

} // namespace cachetime
