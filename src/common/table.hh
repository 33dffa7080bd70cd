/**
 * @file
 * ASCII table formatter behind the CLI's stats, sweep and figure
 * tables.
 */

#ifndef NOSQ_COMMON_TABLE_HH
#define NOSQ_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace nosq {

/** Column-aligned text table with a header row and separators. */
class TextTable
{
  public:
    /** Set the column headers (defines the column count). */
    void header(std::vector<std::string> cells);

    /** Append a data row; must match the header width. */
    void row(std::vector<std::string> cells);

    /** Append a horizontal separator row. */
    void separator();

    /** Render with columns padded to the widest cell. */
    std::string render() const;

  private:
    std::vector<std::string> head;
    // A row with the special first cell "\x01" renders as a separator.
    std::vector<std::vector<std::string>> rows;
};

/** printf-style helper: format a double with the given precision. */
std::string fmtDouble(double v, int precision);

/** Format a percentage as e.g. "12.7". */
std::string fmtPct(double v);

} // namespace nosq

#endif // NOSQ_COMMON_TABLE_HH
