#pragma once

/**
 * @file
 * Minimal string helpers shared by trace I/O and report formatting.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aero {

/** Split `s` on `sep`, keeping empty fields. */
std::vector<std::string_view> split(std::string_view s, char sep);

/** Strip ASCII whitespace from both ends. */
std::string_view trim(std::string_view s);

/** True if `s` starts with `prefix`. */
bool starts_with(std::string_view s, std::string_view prefix);

/**
 * Parse a non-negative decimal integer. Returns false on any non-digit or
 * overflow; on success stores the value in `out`.
 */
bool parse_u64(std::string_view s, uint64_t& out);

/**
 * Parse a finite, non-negative number of seconds (strtod syntax). Returns
 * false on garbage, overflow, NaN or a negative value; on success stores
 * the value in `out`.
 */
bool parse_seconds(std::string_view s, double& out);

/** Format a count with thousands separators, e.g. 1234567 -> "1,234,567". */
std::string with_commas(uint64_t n);

/**
 * Human-readable duration: "1.5ms", "2.34s", "55m40s" — the style the paper
 * uses in Table 1.
 */
std::string format_duration(double seconds);

} // namespace aero
