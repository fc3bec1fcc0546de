#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {

std::vector<double> ColumnOf(const cstore::BatPtr& bat) {
  std::vector<double> col;
  col.reserve(bat->size());
  switch (bat->type()) {
    case cstore::ValType::kInt:
      for (auto x : bat->ints()) col.push_back(x);
      break;
    case cstore::ValType::kFloat:
      for (auto x : bat->floats()) col.push_back(x);
      break;
    case cstore::ValType::kOid:
      for (auto x : bat->oids()) col.push_back(static_cast<double>(x));
      break;
  }
  return col;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

Canonical Canonicalize(const std::vector<mal::Value>& returns) {
  Canonical out;
  std::vector<std::vector<double>> columns;
  for (std::size_t i = 0; i < returns.size(); ++i) {
    const mal::Value& v = returns[i];
    if (std::holds_alternative<double>(v)) {
      columns.push_back({std::get<double>(v)});
      out.is_float.push_back(true);
    } else if (std::holds_alternative<std::int64_t>(v)) {
      columns.push_back({static_cast<double>(std::get<std::int64_t>(v))});
      out.is_float.push_back(false);
    } else if (std::holds_alternative<cstore::BatPtr>(v) &&
               std::get<cstore::BatPtr>(v) != nullptr) {
      const cstore::BatPtr& bat = std::get<cstore::BatPtr>(v);
      columns.push_back(ColumnOf(bat));
      out.is_float.push_back(bat->type() == cstore::ValType::kFloat);
    } else {
      out.unsupported = "return value " + std::to_string(i) + " is not a number or BAT";
      columns.emplace_back();
      out.is_float.push_back(false);
    }
    out.lengths.push_back(columns.back().size());
  }

  std::size_t nrows = 0;
  for (const auto& col : columns) nrows = std::max(nrows, col.size());
  // Key order: exact columns first, then float columns, each in return order.
  std::vector<std::size_t> order(columns.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_partition(order.begin(), order.end(),
                        [&](std::size_t c) { return !out.is_float[c]; });
  out.rows.assign(nrows, {});
  for (std::size_t r = 0; r < nrows; ++r) {
    out.rows[r].reserve(columns.size());
    for (std::size_t c : order) {
      out.rows[r].push_back(r < columns[c].size() ? columns[c][r] : 0.0);
    }
  }
  std::sort(out.rows.begin(), out.rows.end());
  // Rows are stored in key order; remap the per-column flags to match.
  std::vector<bool> flags;
  std::vector<std::size_t> lengths;
  for (std::size_t c : order) {
    flags.push_back(out.is_float[c]);
    lengths.push_back(out.lengths[c]);
  }
  out.is_float = std::move(flags);
  out.lengths = std::move(lengths);
  return out;
}

std::string Compare(const Canonical& want, const Canonical& got, FloatMatch mode) {
  if (!want.unsupported.empty()) return "golden: " + want.unsupported;
  if (!got.unsupported.empty()) return got.unsupported;
  if (want.is_float != got.is_float || want.lengths != got.lengths) {
    std::ostringstream msg;
    msg << "result shape differs: " << got.lengths.size() << " values of "
        << (got.lengths.empty() ? 0 : got.lengths.front()) << "+ rows, golden "
        << want.lengths.size() << " of "
        << (want.lengths.empty() ? 0 : want.lengths.front()) << "+";
    return msg.str();
  }
  for (std::size_t r = 0; r < want.rows.size(); ++r) {
    for (std::size_t c = 0; c < want.rows[r].size(); ++c) {
      double a = want.rows[r][c];
      double b = got.rows[r][c];
      if (SameBits(a, b)) continue;
      if (mode == FloatMatch::kReassociated && want.is_float[c]) {
        if (std::isnan(a) && std::isnan(b)) continue;
        double scale = std::max(std::fabs(a), std::fabs(b));
        if (std::fabs(a - b) <= kReassociationTolerance * scale) continue;
      }
      std::ostringstream msg;
      msg.precision(17);
      msg << "row " << r << " value " << c << ": got " << b << ", golden " << a;
      return msg.str();
    }
  }
  return "";
}

}  // namespace perfbench
