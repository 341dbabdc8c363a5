#ifndef TENSORDASH_COMMON_TABLE_HH_
#define TENSORDASH_COMMON_TABLE_HH_

/**
 * @file
 * ASCII table and CSV rendering used by the benchmark harness to print
 * paper-style tables and figure series.
 */

#include <string>
#include <vector>

namespace tensordash {

/** Column-aligned ASCII table with an optional title. */
class Table
{
  public:
    /** @param title caption printed above the table. */
    explicit Table(std::string title = "") : title_(std::move(title)) {}

    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row (cells already formatted). */
    void row(std::vector<std::string> cells);

    /** Append a row of label + numeric cells with fixed precision. */
    void rowNumeric(const std::string &label,
                    const std::vector<double> &values, int precision = 2);

    /** Render the aligned ASCII table. */
    std::string str() const;

    /** Render as CSV (header + rows). */
    std::string csv() const;

    /** Write csv() to @p path; false when the file cannot be opened,
     * written in full or closed (a caller must not report success on
     * a truncated CSV). */
    bool writeCsv(const std::string &path) const;

    /** Print the ASCII table to stdout. */
    void print() const;

    /** Number of data rows so far. */
    size_t rows() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string fmtDouble(double v, int precision = 2);

/** Format "1.95x" style speedup cells. */
std::string fmtSpeedup(double v);

/** Format a percentage, e.g. 0.42 -> "42.0%". */
std::string fmtPercent(double fraction, int precision = 1);

} // namespace tensordash

#endif // TENSORDASH_COMMON_TABLE_HH_
