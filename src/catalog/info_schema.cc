#include "catalog/info_schema.h"

#include "common/hash.h"

namespace agentfirst {

bool IsInfoSchemaTable(const std::string& name) {
  return name == kInfoSchemaTables || name == kInfoSchemaColumns ||
         name == kInfoSchemaColumnStats;
}

namespace {

/// A version of the catalog state every view reflects: the schema version
/// plus each listed table's name and data version. Any DDL or write moves
/// it, and rebuilding over unchanged state repeats it.
uint64_t CatalogStateVersion(const Catalog& catalog) {
  uint64_t h = HashInt(catalog.schema_version());
  for (const std::string& tname : catalog.ListTables()) {
    auto table = catalog.GetTable(tname);
    if (!table.ok()) continue;
    h = HashCombine(h, HashString(tname));
    h = HashCombine(h, HashInt((*table)->data_version()));
  }
  return h;
}

Result<TablePtr> FillInfoSchemaTable(Catalog& catalog, const std::string& name) {
  if (name == kInfoSchemaTables) {
    Schema schema({ColumnDef("table_name", DataType::kString, false, name),
                   ColumnDef("num_rows", DataType::kInt64, false, name),
                   ColumnDef("num_columns", DataType::kInt64, false, name)});
    auto view = std::make_shared<Table>(name, schema);
    for (const std::string& tname : catalog.ListTables()) {
      auto table = catalog.GetTable(tname);
      if (!table.ok()) continue;
      AF_RETURN_IF_ERROR(view->AppendRow(
          {Value::String(tname),
           Value::Int(static_cast<int64_t>((*table)->NumRows())),
           Value::Int(static_cast<int64_t>((*table)->schema().NumColumns()))}));
    }
    return view;
  }
  if (name == kInfoSchemaColumns) {
    Schema schema({ColumnDef("table_name", DataType::kString, false, name),
                   ColumnDef("column_name", DataType::kString, false, name),
                   ColumnDef("data_type", DataType::kString, false, name),
                   ColumnDef("ordinal", DataType::kInt64, false, name)});
    auto view = std::make_shared<Table>(name, schema);
    for (const std::string& tname : catalog.ListTables()) {
      auto table = catalog.GetTable(tname);
      if (!table.ok()) continue;
      const Schema& ts = (*table)->schema();
      for (size_t i = 0; i < ts.NumColumns(); ++i) {
        AF_RETURN_IF_ERROR(view->AppendRow(
            {Value::String(tname), Value::String(ts.column(i).name),
             Value::String(DataTypeName(ts.column(i).type)),
             Value::Int(static_cast<int64_t>(i))}));
      }
    }
    return view;
  }
  if (name == kInfoSchemaColumnStats) {
    Schema schema({ColumnDef("table_name", DataType::kString, false, name),
                   ColumnDef("column_name", DataType::kString, false, name),
                   ColumnDef("num_distinct", DataType::kInt64, false, name),
                   ColumnDef("num_nulls", DataType::kInt64, false, name),
                   ColumnDef("min_value", DataType::kString, true, name),
                   ColumnDef("max_value", DataType::kString, true, name),
                   ColumnDef("most_common_value", DataType::kString, true, name)});
    auto view = std::make_shared<Table>(name, schema);
    for (const std::string& tname : catalog.ListTables()) {
      auto stats = catalog.GetStats(tname);
      if (!stats.ok()) continue;
      for (const ColumnStats& cs : (*stats)->columns) {
        Value most_common = cs.top_values.empty()
                                ? Value::Null()
                                : Value::String(cs.top_values[0].first.ToString());
        AF_RETURN_IF_ERROR(view->AppendRow(
            {Value::String(tname), Value::String(cs.column_name),
             Value::Int(static_cast<int64_t>(cs.distinct_count)),
             Value::Int(static_cast<int64_t>(cs.null_count)),
             cs.min.is_null() ? Value::Null() : Value::String(cs.min.ToString()),
             cs.max.is_null() ? Value::Null() : Value::String(cs.max.ToString()),
             most_common}));
      }
    }
    return view;
  }
  return Status::NotFound("no such information_schema table: " + name);
}

}  // namespace

Result<TablePtr> BuildInfoSchemaTable(Catalog& catalog, const std::string& name) {
  // A view's own data version would count its appended rows, and scan
  // fingerprints key on it, so an answer over a view with an unchanged row
  // count would outlive writes. Stamp the state's version instead, taken
  // before filling: a write landing mid-build yields a view newer than its
  // stamp, whose key no later bind repeats.
  const uint64_t version = CatalogStateVersion(catalog);
  AF_ASSIGN_OR_RETURN(TablePtr view, FillInfoSchemaTable(catalog, name));
  view->RestoreDataVersion(version);
  return view;
}

}  // namespace agentfirst
