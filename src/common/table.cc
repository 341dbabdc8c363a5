#include "common/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace tensordash {

void
Table::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
Table::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
Table::rowNumeric(const std::string &label,
                  const std::vector<double> &values, int precision)
{
    std::vector<std::string> cells;
    cells.push_back(label);
    for (double v : values)
        cells.push_back(fmtDouble(v, precision));
    rows_.push_back(std::move(cells));
}

std::string
Table::str() const
{
    std::vector<size_t> widths;
    auto account = [&](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    account(header_);
    for (const auto &r : rows_)
        account(r);

    auto renderRow = [&](const std::vector<std::string> &cells,
                         std::ostringstream &os) {
        for (size_t i = 0; i < widths.size(); ++i) {
            std::string cell = i < cells.size() ? cells[i] : "";
            os << (i == 0 ? "| " : " ");
            os << cell << std::string(widths[i] - cell.size(), ' ');
            os << " |";
        }
        os << "\n";
    };

    size_t total = 1;
    for (size_t w : widths)
        total += w + 3;

    std::ostringstream os;
    if (!title_.empty())
        os << title_ << "\n";
    std::string rule(total, '-');
    os << rule << "\n";
    if (!header_.empty()) {
        renderRow(header_, os);
        os << rule << "\n";
    }
    for (const auto &r : rows_)
        renderRow(r, os);
    os << rule << "\n";
    return os.str();
}

std::string
Table::csv() const
{
    std::ostringstream os;
    auto renderRow = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i)
            os << (i ? "," : "") << cells[i];
        os << "\n";
    };
    if (!header_.empty())
        renderRow(header_);
    for (const auto &r : rows_)
        renderRow(r);
    return os.str();
}

bool
Table::writeCsv(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = csv();
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    return wrote && closed;
}

void
Table::print() const
{
    std::fputs(str().c_str(), stdout);
    std::fflush(stdout);
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtSpeedup(double v)
{
    return fmtDouble(v, 2) + "x";
}

std::string
fmtPercent(double fraction, int precision)
{
    return fmtDouble(fraction * 100.0, precision) + "%";
}

} // namespace tensordash
