#include "base/output.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace jscale {

namespace {

/** Aligned rows under an underlined header. */
void
printGrid(std::ostream &os, const std::vector<std::string> &header,
          const std::vector<std::vector<std::string>> &rows,
          const std::vector<TextTable::Align> &aligns)
{
    std::size_t n_cols = header.size();
    for (const auto &r : rows)
        n_cols = std::max(n_cols, r.size());
    if (n_cols == 0)
        return;

    std::vector<std::size_t> widths(n_cols, 0);
    auto measure = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            widths[c] = std::max(widths[c], cells[c].size());
    };
    measure(header);
    for (const auto &r : rows)
        measure(r);

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < n_cols; ++c) {
            const std::string &cell = c < cells.size() ? cells[c]
                                                       : std::string();
            // Default: first column left, the rest right.
            const bool left = c < aligns.size()
                                  ? aligns[c] == TextTable::Align::Left
                                  : c == 0;
            const std::size_t pad = widths[c] - cell.size();
            if (!left)
                os << std::string(pad, ' ') << cell;
            else
                os << cell << std::string(pad, ' ');
            os << (c + 1 < n_cols ? "  " : "");
        }
        os << '\n';
    };

    emit(header);
    std::size_t total = 0;
    for (std::size_t c = 0; c < n_cols; ++c)
        total += widths[c] + (c + 1 < n_cols ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &r : rows)
        emit(r);
}

} // namespace

TextTable::TextTable(std::vector<Column> columns)
    : columns_(std::move(columns))
{}

void
TextTable::header(std::vector<std::string> cells)
{
    columns_.clear();
    for (std::string &h : cells)
        columns_.push_back({h, std::move(h)});
}

void
TextTable::row(std::vector<Cell> cells, RowKind kind)
{
    jscale_assert(cells.size() == columns_.size(), "row width ",
                  cells.size(), " != header width ", columns_.size());
    rows_.push_back({std::move(cells), kind});
}

void
TextTable::align(std::size_t col, Align a)
{
    // Unset columns keep the defaults: first left, the rest right.
    while (aligns_.size() <= col)
        aligns_.push_back(aligns_.empty() ? Align::Left : Align::Right);
    aligns_[col] = a;
}

void
TextTable::print(std::ostream &os, unsigned panel) const
{
    std::vector<std::size_t> shown;
    std::vector<std::string> header;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (!columns_[c].text.empty() &&
            (columns_[c].panels >> panel & 1u) != 0) {
            shown.push_back(c);
            header.push_back(columns_[c].text);
        }
    }
    std::vector<std::vector<std::string>> grid;
    for (const Row &r : rows_) {
        if (r.kind == RowKind::CsvOnly)
            continue;
        std::vector<std::string> line;
        for (const std::size_t c : shown) {
            const Cell &cell = r.cells[c];
            line.push_back(r.kind == RowKind::Unmeasured && cell.numeric
                               ? "-"
                               : cell.text);
        }
        grid.push_back(std::move(line));
    }
    printGrid(os, header, grid, aligns_);
}

void
TextTable::printPivot(std::ostream &os, std::size_t row_key,
                      std::size_t col_key, std::size_t value) const
{
    std::vector<std::string> header = {columns_[row_key].text};
    std::vector<std::vector<std::string>> grid;
    std::size_t at = 0;
    for (const Row &r : rows_) {
        if (r.cells[row_key].text == rows_.front().cells[row_key].text) {
            header.push_back(r.cells[col_key].text);
            at = 0;
        }
        if (at == grid.size())
            grid.push_back({r.cells[row_key].text});
        grid[at++].push_back(r.cells[value].text);
    }
    printGrid(os, header, grid, aligns_);
}

void
TextTable::writeCsv(std::ostream &os) const
{
    CsvWriter csv(os);
    std::vector<std::string> line;
    for (const Column &c : columns_) {
        if (!c.csv.empty())
            line.push_back(c.csv);
    }
    csv.row(line);
    for (const Row &r : rows_) {
        if (csv_drops_unmeasured_ && r.kind == RowKind::Unmeasured)
            continue;
        line.clear();
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            if (!columns_[c].csv.empty())
                line.push_back(r.cells[c].csv);
        }
        csv.row(line);
    }
}

std::string
TextTable::str() const
{
    std::ostringstream oss;
    print(oss);
    return oss.str();
}

void
CsvWriter::row(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            os_ << ',';
        os_ << quote(cells[i]);
    }
    os_ << '\n';
}

std::string
CsvWriter::quote(const std::string &cell)
{
    const bool needs = cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs)
        return cell;
    std::string out = "\"";
    for (char ch : cell) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

} // namespace jscale
