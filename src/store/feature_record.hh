/**
 * @file
 * The unit of the feature trace store: one extracted-feature sample
 * per (iteration, analysis). The paper's pitch is that in-situ AR
 * extraction replaces dumping the full-fidelity trace; the store
 * makes the extracted side of that comparison a durable, queryable
 * artifact instead of values that die with the process.
 */

#ifndef TDFE_STORE_FEATURE_RECORD_HH
#define TDFE_STORE_FEATURE_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tdfe
{

/**
 * One row of the feature store. Integer fields and double fields
 * are stored in separate column families on disk (delta+zigzag
 * varints vs Gorilla XOR packing); `coeffs` holds the intercept-first
 * raw-space AR coefficients and must match the store schema's
 * coefficient column count exactly.
 */
struct FeatureRecord
{
    /** Simulation iteration the sample belongs to. */
    long iteration = 0;
    /** Analysis id within the region (0 for single-analysis apps). */
    long analysis = 0;
    /** Stop flag published by the region's protocol at this point. */
    bool stop = false;
    /** Wall-clock seconds since the producing region was created. */
    double wallTime = 0.0;
    /** Wave-front position (sampled location with the peak value). */
    double wavefront = 0.0;
    /** One-step predicted value at the feature location. */
    double predicted = 0.0;
    /** Rolling validation MSE of the fit (normalized space). */
    double mse = 0.0;
    /** Intercept-first raw-space fit coefficients (zeros until the
     *  model trains). Size = StoreSchema::coeffCount. */
    std::vector<double> coeffs;
};

/**
 * Column layout of one store file, declared once: every module that
 * names, orders, or reads a column goes through this table. The
 * integer and the non-coeff double columns are fixed; only the
 * coefficient column count varies (model order + 1 of the producing
 * analyses). Columns are numbered in file order, the integer family
 * first, then the double family; intColumn()/doubleColumn() index
 * within one family, the way the on-disk column families and the
 * footer's zone map do. Column names are recorded in the file
 * footer so tools stay self-describing; the reader rejects a footer
 * whose names are not these.
 */
struct StoreSchema
{
    /** Coefficient columns (AR order + 1, intercept first). */
    std::size_t coeffCount = 0;

    /** Fixed integer columns: iteration, analysis, stop. */
    static constexpr std::size_t numIntColumns = 3;
    /** Fixed double columns before the coefficients. */
    static constexpr std::size_t numFixedDoubleColumns = 4;
    /** Names of the fixed columns, in file order; coefficient k is
     *  "coef<k>". */
    static constexpr const char *fixedColumnNames[numIntColumns +
                                                  numFixedDoubleColumns] =
        {"iteration", "analysis",  "stop", "wall_time",
         "wavefront", "predicted", "mse"};

    std::size_t intColumns() const { return numIntColumns; }
    std::size_t doubleColumns() const
    {
        return numFixedDoubleColumns + coeffCount;
    }
    /** Columns of one record, both families. */
    std::size_t totalColumns() const
    {
        return intColumns() + doubleColumns();
    }

    /** @return name of column @p c (file order, < totalColumns()). */
    static std::string
    columnName(std::size_t c)
    {
        constexpr std::size_t fixed =
            numIntColumns + numFixedDoubleColumns;
        return c < fixed ? fixedColumnNames[c]
                         : "coef" + std::to_string(c - fixed);
    }

    /** @return every column name, in file order. */
    std::vector<std::string>
    columnNames() const
    {
        std::vector<std::string> names;
        for (std::size_t c = 0; c < totalColumns(); ++c)
            names.push_back(columnName(c));
        return names;
    }

    /** @return file-order index of column @p name, or SIZE_MAX when
     *  this schema has no such column. */
    std::size_t
    columnIndex(const std::string &name) const
    {
        for (std::size_t c = 0; c < totalColumns(); ++c)
            if (columnName(c) == name)
                return c;
        return static_cast<std::size_t>(-1);
    }

    /** @return integer column @p i (< numIntColumns) of @p r. */
    static std::int64_t
    intColumn(const FeatureRecord &r, std::size_t i)
    {
        return i == 0 ? r.iteration : i == 1 ? r.analysis : r.stop;
    }

    /** Store @p v into integer column @p i (< numIntColumns) of
     *  @p r. */
    static void
    setIntColumn(FeatureRecord &r, std::size_t i, std::int64_t v)
    {
        if (i < 2)
            (i == 0 ? r.iteration : r.analysis) = static_cast<long>(v);
        else
            r.stop = v != 0;
    }

    /** @return double column @p i (< doubleColumns()) of @p r: the
     *  fixed metrics, then the coefficients. @p Record is
     *  FeatureRecord or const FeatureRecord. */
    template <typename Record>
    static auto &
    doubleColumn(Record &r, std::size_t i)
    {
        constexpr double FeatureRecord::*fixed[numFixedDoubleColumns] = {
            &FeatureRecord::wallTime, &FeatureRecord::wavefront,
            &FeatureRecord::predicted, &FeatureRecord::mse};
        return i < numFixedDoubleColumns
                   ? r.*fixed[i]
                   : r.coeffs[i - numFixedDoubleColumns];
    }

    bool
    operator==(const StoreSchema &o) const
    {
        return coeffCount == o.coeffCount;
    }
    bool operator!=(const StoreSchema &o) const { return !(*this == o); }
};

} // namespace tdfe

#endif // TDFE_STORE_FEATURE_RECORD_HH
