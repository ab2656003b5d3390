"""spark-submit entrypoint for Table 2 (index size + construction time)."""
from repro.experiments.table2 import print_table2
from repro.session import scale, session

if __name__ == "__main__":
    spark = session("repro-table2")
    df = print_table2(spark, scale=scale())
    df.to_csv("results_table2.csv", index=False)
    spark.stop()
