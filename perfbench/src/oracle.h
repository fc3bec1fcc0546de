#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "mal/program.h"

namespace perfbench {

/// A query result in comparable form. Engines may emit the same result set
/// in a different row order (group ids, join order), so rows are sorted; the
/// values themselves are kept exactly (int32, oid and float32 widen to double
/// losslessly).
struct Canonical {
  /// Per returned value: true when it carries floating-point data (a float
  /// BAT or a double scalar), the only values a reassociated sum may move.
  std::vector<bool> is_float;
  /// Per returned value: its row count (scalars count one row).
  std::vector<std::size_t> lengths;
  /// Row-major values, shorter columns padded with 0, sorted with the exact
  /// (non-float) columns as leading keys so a last-bit float difference can
  /// never reorder rows.
  std::vector<std::vector<double>> rows;
  /// Non-empty when the result held a value kind the oracle cannot compare
  /// (a string or an unset variable) — reported as a mismatch, never skipped.
  std::string unsupported;
};

Canonical Canonicalize(const std::vector<mal::Value>& returns);

/// How float values must match the golden.
enum class FloatMatch {
  /// Bit for bit (seq, ocelot:gpu, and every int/oid value on any engine).
  kExact,
  /// ocelot:multi: a weighted partition plan splits float sums into
  /// per-device partials that the merge adds in another association than
  /// the golden's single running sum (ServiceOptions::static_partition), so
  /// float values may differ in their last bits. Allowed: a relative
  /// difference up to kReassociationTolerance.
  kReassociated,
};

/// 2^-18 relative (~3.8e-6, 32 float32 ulps). Reassociating a float32 sum
/// perturbs it at its rounding level: the largest difference seen between
/// ocelot:multi and the seq golden over the paper workload at SF 1 and
/// SF 4 is 1.2e-7 relative (two ulps), so this leaves 30x headroom. A real
/// defect — one average-sized row dropped or counted twice in a group of
/// up to 10^5 rows — moves a sum by 1e-5 relative or more and still fails.
inline constexpr double kReassociationTolerance = 1.0 / (1 << 18);

/// Empty when `got` matches `want` under `mode`; otherwise a one-line
/// description of the first difference.
std::string Compare(const Canonical& want, const Canonical& got, FloatMatch mode);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
