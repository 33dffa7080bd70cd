#include "common/table.hh"

#include <cstdio>

#include "common/logging.hh"

namespace nosq {

void
TextTable::header(std::vector<std::string> cells)
{
    head = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    nosq_assert(cells.size() == head.size(),
                "table row width mismatch");
    rows.push_back(std::move(cells));
}

void
TextTable::separator()
{
    rows.push_back({"\x01"});
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(head.size(), 0);
    for (std::size_t c = 0; c < head.size(); ++c)
        widths[c] = head[c].size();
    for (const auto &r : rows) {
        if (r.size() == 1 && r[0] == "\x01")
            continue;
        for (std::size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &r,
                        std::string &out) {
        for (std::size_t c = 0; c < r.size(); ++c) {
            out += (c == 0) ? "| " : " | ";
            out += r[c];
            out.append(widths[c] - r[c].size(), ' ');
        }
        out += " |\n";
    };

    auto emit_sep = [&](std::string &out) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            out += (c == 0) ? "+-" : "-+-";
            out.append(widths[c], '-');
        }
        out += "-+\n";
    };

    std::string out;
    emit_sep(out);
    emit_row(head, out);
    emit_sep(out);
    for (const auto &r : rows) {
        if (r.size() == 1 && r[0] == "\x01")
            emit_sep(out);
        else
            emit_row(r, out);
    }
    emit_sep(out);
    return out;
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPct(double v)
{
    return fmtDouble(v, 1);
}

} // namespace nosq
