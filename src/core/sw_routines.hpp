// The software half of every test (the right-hand column of Table II).
//
// `software_runner` is the program that runs on the embedded platform: it
// reads the hardware counter values over the memory-mapped interface and
// verifies the randomness hypothesis using only add/subtract/multiply/
// square/shift/compare instructions plus the PWL table -- no erfc, no
// gamma, no division.  Every routine executes against a `sw16::soft_cpu`,
// which both computes the exact result and charges the 16-bit instruction
// costs that regenerate the SW section of Table III.
//
// There is deliberately no single alarm output: the result is a vector of
// per-test verdicts with their raw statistics (the anti-fault-attack
// property discussed in the paper's introduction).
#pragma once

#include "core/critical_values.hpp"
#include "hw/config.hpp"
#include "hw/register_map.hpp"
#include "sw16/cpu.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace otf::core {

struct test_verdict {
    hw::test_id id;
    std::string name;
    bool pass = false;
    /// The integer statistic the software computed.
    std::int64_t statistic = 0;
    /// The precomputed constant it was compared against.
    std::int64_t bound = 0;
};

struct software_result {
    std::vector<test_verdict> verdicts;
    bool all_pass = true;
    /// Instruction cost of reading every hardware value (the READ pass).
    sw16::op_counts collection_ops;
    /// Collection + all routines.
    sw16::op_counts total_ops;

    const test_verdict* find(hw::test_id id) const;
};

class software_runner {
public:
    /// \brief Link the software pass to one design point and the register
    /// layout it will read.  Every register the enabled routines use is
    /// resolved to a slot index here, once -- the host counterpart of the
    /// firmware's fixed addresses (msp430::word_address_of) -- so run()
    /// reads the map by position and never by name.
    /// \param cfg    the design whose tests the pass must verify
    /// \param cv     precomputed integer acceptance bounds for that design
    /// \param layout the testing block's register map for `cfg` (only its
    ///               entry names and order are used; no value is read)
    /// \throws std::invalid_argument naming the register when `layout`
    /// lacks one the routines read
    software_runner(hw::block_config cfg, critical_values cv,
                    const hw::register_map& layout);

    const hw::block_config& config() const { return cfg_; }
    const critical_values& bounds() const { return cv_; }

    /// \brief Full pass: read the interface, run every enabled test's
    /// routine.  Reentrant: all per-window state is local to the call.
    /// \param map the testing block's memory-mapped counter values, laid
    ///            out as the map the runner was linked against
    /// \param cpu instruction-accounting CPU that executes (and charges)
    ///            every READ and every arithmetic instruction
    /// \return per-test verdicts with raw statistics and op counts
    /// \throws std::invalid_argument when `map` has a different number of
    /// entries than the linked layout
    software_result run(const hw::register_map& map,
                        sw16::soft_cpu& cpu) const;

private:
    /// Slot indices into the flat value store of one pass: mapped
    /// registers sit at their map index, the derived serial marginals
    /// (serial_transfer_marginals) after them.
    using slot_file = std::vector<std::size_t>;
    using values = std::vector<sw16::reg>;

    hw::block_config cfg_;
    critical_values cv_;
    std::size_t mapped_ = 0; ///< entries of the linked register map
    std::size_t slots_ = 0;  ///< mapped + derived slots
    std::size_t s_final_ = 0;
    std::size_t s_max_ = 0;
    std::size_t s_min_ = 0;
    std::size_t n_runs_ = 0;
    slot_file eps_;     ///< block_frequency.eps[i]
    slot_file nu_lr_;   ///< longest_run.nu[c]
    slot_file w_t7_;    ///< non_overlapping.w[i]
    slot_file nu_t8_;   ///< overlapping.nu_temp[c]
    slot_file nu_m_;    ///< serial.nu_m[p]
    slot_file nu_m1_;   ///< serial.nu_m1[p] (mapped or derived)
    slot_file nu_m2_;   ///< serial.nu_m2[p] (mapped or derived)
    bool derive_marginals_ = false;

    void link(const hw::register_map& layout);
    values collect(const hw::register_map& map, sw16::soft_cpu& cpu) const;

    test_verdict run_frequency(sw16::soft_cpu& cpu, const values& v) const;
    test_verdict run_block_frequency(sw16::soft_cpu& cpu,
                                     const values& v) const;
    test_verdict run_runs(sw16::soft_cpu& cpu, const values& v) const;
    test_verdict run_longest_run(sw16::soft_cpu& cpu, const values& v) const;
    test_verdict run_non_overlapping(sw16::soft_cpu& cpu,
                                     const values& v) const;
    test_verdict run_overlapping(sw16::soft_cpu& cpu, const values& v) const;
    test_verdict run_serial(sw16::soft_cpu& cpu, const values& v) const;
    test_verdict run_approximate_entropy(sw16::soft_cpu& cpu,
                                         const values& v) const;
    test_verdict run_cumulative_sums(sw16::soft_cpu& cpu,
                                     const values& v) const;
};

/// \brief True when `tests` only enables tests the bit-sliced fleet lane
/// (hw::sliced_block) can verify: frequency and runs.  Everything else
/// needs the scalar engines and stays on the span lane.
bool sliced_pass_supported(const hw::test_set& tests);

/// \brief The sliced lane's software pass: the frequency and runs
/// verdicts computed straight from the bit-sliced statistics, decision
/// for decision identical to software_runner::run on the scalar
/// registers (same verdict order, names, statistics and bounds).  The
/// instruction accounting is zero -- the sliced lane trades the
/// per-channel cycle model for 64-wide batching, so a channel's
/// sw_cycles reads 0 there.
/// \param cfg     design point; its test set must satisfy
///                sliced_pass_supported()
/// \param cv      precomputed acceptance bounds for `cfg`
/// \param s_final final cusum walk value (2 * ones - n)
/// \param n_runs  runs count (transitions + 1)
/// \throws std::invalid_argument when the test set needs scalar engines
software_result sliced_software_pass(const hw::block_config& cfg,
                                     const critical_values& cv,
                                     std::int64_t s_final,
                                     std::uint64_t n_runs);

} // namespace otf::core
