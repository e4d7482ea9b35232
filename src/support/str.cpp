#include "support/str.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace aero {

std::vector<std::string_view>
split(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string_view
trim(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
starts_with(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool
parse_u64(std::string_view s, uint64_t& out)
{
    if (s.empty())
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
parse_seconds(std::string_view s, double& out)
{
    const std::string buf(s); // strtod needs a terminator
    char* end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (buf.empty() || end != buf.c_str() + buf.size() ||
        !std::isfinite(v) || v < 0)
        return false;
    out = v;
    return true;
}

std::string
with_commas(uint64_t n)
{
    std::string digits = std::to_string(n);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    size_t lead = digits.size() % 3;
    if (lead == 0)
        lead = 3;
    for (size_t i = 0; i < digits.size(); ++i) {
        if (i > 0 && (i - lead) % 3 == 0 && i >= lead)
            out.push_back(',');
        out.push_back(digits[i]);
    }
    return out;
}

std::string
format_duration(double seconds)
{
    char buf[64];
    if (seconds < 1e-3) {
        std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
    } else if (seconds < 1.0) {
        std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
    } else if (seconds < 120.0) {
        std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
    } else {
        uint64_t total = static_cast<uint64_t>(std::llround(seconds));
        std::snprintf(buf, sizeof(buf), "%llum%llus",
                      static_cast<unsigned long long>(total / 60),
                      static_cast<unsigned long long>(total % 60));
    }
    return buf;
}

} // namespace aero
