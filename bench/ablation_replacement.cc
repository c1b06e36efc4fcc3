/**
 * @file
 * Ablation: replacement policy.
 *
 * Section 4 uses random replacement "regardless of the set size".
 * This bench checks how much that choice matters by re-running the
 * associativity sweep with LRU and FIFO: the paper's conclusions
 * should be insensitive to it (the break-even budget shifts by well
 * under the TTL-mux constants).
 */

#include <iterator>

#include "bench/common.hh"
#include "core/experiment.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    auto sizes = sizeAxisWordsEach(2, 8); // 16KB .. 512KB total
    SystemConfig base = SystemConfig::paperDefault();

    const ReplPolicy policies[] = {ReplPolicy::Random, ReplPolicy::LRU,
                                   ReplPolicy::FIFO};

    const unsigned assocs[] = {2u, 4u};

    // One grid query over (set size, cache size, policy), in the
    // order the tables print.
    std::vector<SystemConfig> configs;
    for (unsigned assoc : assocs) {
        for (auto words_each : sizes) {
            for (ReplPolicy policy : policies) {
                SystemConfig config = base;
                config.setL1SizeWordsEach(words_each);
                config.setL1Assoc(assoc);
                config.icache.replPolicy = policy;
                config.dcache.replPolicy = policy;
                configs.push_back(config);
            }
        }
    }
    const std::vector<AggregateMetrics> metrics =
        runGeoMeanMany(configs, traces);

    std::size_t at = 0;
    for (unsigned assoc : assocs) {
        std::vector<std::string> headers{"total L1"};
        for (ReplPolicy policy : policies)
            headers.push_back(std::string(replPolicyName(policy)) +
                              " miss");
        TablePrinter table(headers);
        for (auto words_each : sizes) {
            std::vector<std::string> row{
                TablePrinter::fmtSizeWords(2 * words_each)};
            for (std::size_t p = 0; p < std::size(policies); ++p)
                row.push_back(
                    TablePrinter::fmt(metrics[at++].readMissRatio, 4));
            table.addRow(row);
        }
        emit(table, "Ablation: replacement policy at set size " +
                        std::to_string(assoc));
    }
    return 0;
}
