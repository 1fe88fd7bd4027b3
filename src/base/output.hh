/**
 * @file
 * Tabular output: typed cells, a table that renders them as aligned
 * plain text (console) and as RFC-4180 CSV (machine-readable), and the
 * CSV row writer both forms of output go through.
 *
 * A report declares its columns once — each with a text header and a
 * CSV header — and fills rows of typed cells; the formatting decisions
 * (ticks as "12.40 ms" vs. raw ns, shares as "42.3%" vs. "0.4230", an
 * unmeasured cell as "-") live in Cell, not in each report.
 */

#ifndef JSCALE_BASE_OUTPUT_HH
#define JSCALE_BASE_OUTPUT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "base/units.hh"

namespace jscale {

/**
 * One table cell, formatted once for the text table and once for the
 * CSV. Plain strings convert implicitly to a label that reads the same
 * in both forms.
 */
struct Cell
{
    Cell(std::string t) : text(t), csv(std::move(t)) {}
    Cell(const char *t) : Cell(std::string(t)) {}

    /** A label that reads differently in the two forms. */
    static Cell label(std::string text, std::string csv)
    {
        return {std::move(text), std::move(csv), false};
    }
    /** Simulated time: formatTicks in text, raw ns in CSV. */
    static Cell ticks(Ticks t)
    {
        return {formatTicks(t), std::to_string(t), true};
    }
    /** A mean time: formatTicks of its truncation, rounded ns in CSV. */
    static Cell meanTicks(double t)
    {
        return {formatTicks(static_cast<Ticks>(t)), formatFixed(t, 0), true};
    }
    /** A byte count: formatBytes in text, raw bytes in CSV. */
    static Cell bytes(Bytes b)
    {
        return {formatBytes(b), std::to_string(b), true};
    }
    /** A fraction: a percent in text, @p csv_digits decimals in CSV. */
    static Cell share(double f, int csv_digits = 4)
    {
        return {formatPercent(f), formatFixed(f, csv_digits), true};
    }
    /** An integer, the same in both forms. */
    static Cell count(std::uint64_t n)
    {
        std::string s = std::to_string(n);
        return {s, std::move(s), true};
    }
    /** A real with separate text and CSV precision. */
    static Cell fixed(double v, int text_digits, int csv_digits)
    {
        return {formatFixed(v, text_digits), formatFixed(v, csv_digits),
                true};
    }
    /** Nothing measured: "-" in text, empty in CSV. */
    static Cell missing() { return {"-", "", true}; }

    std::string text;
    std::string csv;
    /** Numbers read "-" in the text of an unmeasured row; labels stay. */
    bool numeric = false;

  private:
    Cell(std::string t, std::string c, bool number)
        : text(std::move(t)), csv(std::move(c)), numeric(number)
    {}
};

/**
 * A table of typed cells with two emitters: print() renders aligned
 * text (columns sized to their widest cell, header underlined, first
 * column left-aligned) and writeCsv() renders CSV through CsvWriter.
 *
 * Each column names its text and CSV headers; an empty header keeps
 * the column out of that form, so a report whose two forms differ in
 * columns or order declares both in one list.
 */
class TextTable
{
  public:
    /** Column alignment in the text form. */
    enum class Align { Left, Right };

    struct Column
    {
        /** Text header; empty = CSV-only column. */
        std::string text;
        /** CSV header; empty = text-only column. */
        std::string csv;
        /** Bit mask of the text panels (print(os, panel)) showing it. */
        unsigned panels = 1;
    };

    /** How a row renders. */
    enum class RowKind
    {
        Measured,
        /** Numeric cells read "-" in the text; the CSV keeps values. */
        Unmeasured,
        /** In the CSV only. */
        CsvOnly,
    };

    TextTable() = default;
    explicit TextTable(std::vector<Column> columns);

    /** Text-only table: one column per header. */
    void header(std::vector<std::string> cells);

    /** Append a row of one cell per column. */
    void row(std::vector<Cell> cells, RowKind kind = RowKind::Measured);

    /** Leave unmeasured rows out of the CSV. */
    void dropUnmeasuredFromCsv() { csv_drops_unmeasured_ = true; }

    /** Override the alignment of text column @p col. */
    void align(std::size_t col, Align a);

    /** Text emitter: panel @p panel, two-space column separation. */
    void print(std::ostream &os, unsigned panel = 0) const;

    /**
     * Text emitter for a long table shown wide: one text row per
     * distinct @p row_key cell, one text column per block of rows (a
     * block starts whenever @p row_key returns to its first value),
     * headed by the block's @p col_key text and filled with its
     * @p value cells.
     */
    void printPivot(std::ostream &os, std::size_t row_key,
                    std::size_t col_key, std::size_t value) const;

    /** CSV emitter: the CSV header, then every CSV row. */
    void writeCsv(std::ostream &os) const;

    /** Render the text form to a string. */
    std::string str() const;

    /** Number of data rows. */
    std::size_t rows() const { return rows_.size(); }

  private:
    struct Row
    {
        std::vector<Cell> cells;
        RowKind kind;
    };

    std::vector<Column> columns_;
    std::vector<Row> rows_;
    std::vector<Align> aligns_;
    bool csv_drops_unmeasured_ = false;
};

/**
 * Minimal CSV writer. Quotes cells containing separators/quotes/newlines
 * and doubles embedded quotes, per RFC 4180.
 */
class CsvWriter
{
  public:
    /** Write rows to @p os. */
    explicit CsvWriter(std::ostream &os) : os_(os) {}

    /** Write one row. */
    void row(const std::vector<std::string> &cells);

    /** Convenience: write a row of stringified values. */
    template <typename... Args>
    void
    rowOf(Args &&...args)
    {
        row({toCell(std::forward<Args>(args))...});
    }

  private:
    static std::string quote(const std::string &cell);

    template <typename T>
    static std::string
    toCell(T &&v)
    {
        if constexpr (std::is_convertible_v<T, std::string>) {
            return std::string(std::forward<T>(v));
        } else {
            return std::to_string(v);
        }
    }

    std::ostream &os_;
};

} // namespace jscale

#endif // JSCALE_BASE_OUTPUT_HH
